//! Table 7: the monotonicity audit.
//!
//! Renders [`certa_bench::artifacts::TABLE7`].

fn main() {
    certa_bench::artifacts::TABLE7.main();
}
