//! Figures 1–5: the introduction walkthrough on Abt-Buy.
//!
//! Renders [`certa_bench::artifacts::FIG01_05`].

fn main() {
    certa_bench::artifacts::FIG01_05.main();
}
