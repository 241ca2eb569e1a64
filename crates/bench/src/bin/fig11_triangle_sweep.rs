//! Figure 11: the panel metrics as the triangle budget τ grows.
//!
//! Renders [`certa_bench::artifacts::FIG11`].

fn main() {
    certa_bench::artifacts::FIG11.main();
}
