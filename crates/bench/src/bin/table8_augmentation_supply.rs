//! Table 8: open triangles without data augmentation.
//!
//! Renders [`certa_bench::artifacts::TABLE8`].

fn main() {
    certa_bench::artifacts::TABLE8.main();
}
