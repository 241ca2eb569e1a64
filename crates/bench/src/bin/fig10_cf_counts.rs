//! Figure 10: average number of counterfactual examples per method.
//!
//! Renders [`certa_bench::artifacts::FIG10`].

fn main() {
    certa_bench::artifacts::FIG10.main();
}
