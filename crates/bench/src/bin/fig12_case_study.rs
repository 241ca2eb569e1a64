//! Figure 12: the case study of Ditto on BA.
//!
//! Renders [`certa_bench::artifacts::FIG12`].

fn main() {
    certa_bench::artifacts::FIG12.main();
}
