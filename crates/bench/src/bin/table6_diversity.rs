//! Table 6: diversity of the four counterfactual methods.
//!
//! Renders [`certa_bench::artifacts::TABLE6`].

fn main() {
    certa_bench::artifacts::TABLE6.main();
}
