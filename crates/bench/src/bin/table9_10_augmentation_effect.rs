//! Tables 9–10: effect of augmentation-only open triangles.
//!
//! Renders [`certa_bench::artifacts::TABLE9_10`].

fn main() {
    certa_bench::artifacts::TABLE9_10.main();
}
