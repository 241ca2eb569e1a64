//! Regenerate every table and figure of the paper in one process: prepare
//! all twelve datasets once, print the matcher quality they reach, then
//! render every artifact of [`certa_bench::artifacts::PAPER_ORDER`] under a
//! `## <title>` heading. Each section equals the stdout of that artifact's
//! own binary after its banner. Timings go to stderr, so stdout is a pure
//! function of the flags: `tests/fixtures/repro_all_default.txt` is its
//! stdout at `--scale default`, which CI diffs against a fresh run.
//!
//! ```text
//! cargo run --release -p certa-bench --bin repro_all -- --scale default
//! ```

use certa_bench::artifacts::{Run, PAPER_ORDER};
use certa_bench::{banner, CliOptions};
use certa_datagen::DatasetId;
use certa_eval::TableBuilder;
use certa_models::ModelKind;
use std::time::Instant;

fn main() {
    let opts = CliOptions::from_env();
    banner("repro_all — every table and figure of the paper", &opts);
    let t0 = Instant::now();

    let run = Run::new(opts, &DatasetId::all());
    eprintln!(
        "[{:?}] {} datasets prepared",
        t0.elapsed(),
        run.prepared().len()
    );
    let mut zoo_table = TableBuilder::new("Matcher quality (test F1)").header([
        "Dataset",
        "DeepER",
        "DeepMatcher",
        "Ditto",
    ]);
    for p in run.prepared() {
        zoo_table.row([
            p.id.code().to_string(),
            format!("{:.2}", p.zoo.report(ModelKind::DeepEr).test_f1),
            format!("{:.2}", p.zoo.report(ModelKind::DeepMatcher).test_f1),
            format!("{:.2}", p.zoo.report(ModelKind::Ditto).test_f1),
        ]);
    }
    println!("{}", zoo_table.render());

    for artifact in PAPER_ORDER {
        println!("## {}\n", artifact.title);
        print!("{}", artifact.render(&run));
        eprintln!("[{:?}] {} done", t0.elapsed(), artifact.title);
    }
    eprintln!("all artifacts regenerated in {:?}", t0.elapsed());
}
