//! Table 2: faithfulness of the four saliency methods.
//!
//! Renders [`certa_bench::artifacts::TABLE2`].

fn main() {
    certa_bench::artifacts::TABLE2.main();
}
