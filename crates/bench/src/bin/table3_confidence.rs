//! Table 3: confidence indication of the four saliency methods.
//!
//! Renders [`certa_bench::artifacts::TABLE3`].

fn main() {
    certa_bench::artifacts::TABLE3.main();
}
