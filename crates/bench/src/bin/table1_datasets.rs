//! Table 1: dataset characteristics of the twelve generated benchmarks.
//!
//! Renders [`certa_bench::artifacts::TABLE1`].

fn main() {
    certa_bench::artifacts::TABLE1.main();
}
