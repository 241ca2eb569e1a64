//! Table 4: proximity of the four counterfactual methods.
//!
//! Renders [`certa_bench::artifacts::TABLE4`].

fn main() {
    certa_bench::artifacts::TABLE4.main();
}
