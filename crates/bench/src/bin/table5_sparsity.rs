//! Table 5: sparsity of the four counterfactual methods.
//!
//! Renders [`certa_bench::artifacts::TABLE5`].

fn main() {
    certa_bench::artifacts::TABLE5.main();
}
