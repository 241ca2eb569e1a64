//! The paper's artifacts, one render function each: the introduction's
//! Figures 1–5 and every table and figure of §5.
//!
//! An [`Artifact`] is registered with its title and the datasets it reads.
//! A [`Run`] prepares datasets once (generation, model zoo, explained
//! sample) and any number of artifacts render from it; it computes the
//! saliency grid of Tables 2–3 and the counterfactual grid of Tables 4–6
//! and Figure 10 once each, on first use. Each artifact binary
//! prepares only its own datasets; `repro_all` prepares all twelve and
//! renders [`PAPER_ORDER`] from one run. An artifact renders the same bytes
//! either way, so every `repro_all` section equals its binary's output.

use std::cell::OnceCell;
use std::fmt::{Display, Write as _};

use certa_baselines::{CfMethod, SaliencyMethod};
use certa_core::{LabeledPair, Matcher, Split};
use certa_datagen::{table1_rows, DatasetId};
use certa_eval::augmentation::{augmentation_effect, natural_triangle_supply};
use certa_eval::casestudy::{case_study, pick_cases};
use certa_eval::grid::{
    prepare, run_cf_grid, run_saliency_grid, Cell, CfCell, PreparedDataset, SaliencyCell,
};
use certa_eval::masking::copy_salient;
use certa_eval::monotonicity::audit;
use certa_eval::report::render_grid_table;
use certa_eval::triangle_sweep::sweep_point;
use certa_eval::{GridConfig, TableBuilder};
use certa_models::ModelKind;

use crate::{banner, CliOptions};

/// One paper artifact: its title, the datasets it reads and its renderer.
pub struct Artifact {
    /// Banner of the artifact's binary and heading of its `repro_all`
    /// section.
    pub title: &'static str,
    /// The datasets the artifact reads from a [`Run`].
    pub datasets: &'static [DatasetId],
    render: fn(&Run) -> String,
}

impl Artifact {
    /// The artifact's output, from a run that prepared at least
    /// [`Artifact::datasets`].
    pub fn render(&self, run: &Run) -> String {
        (self.render)(run)
    }

    /// The whole `main` of the artifact's binary: parse the process
    /// arguments, print the banner, prepare this artifact's datasets and
    /// print the render.
    pub fn main(&self) {
        let opts = CliOptions::from_env();
        banner(self.title, &opts);
        print!("{}", self.render(&Run::new(opts, self.datasets)));
    }
}

/// Datasets prepared once under one set of options. Every artifact
/// rendered from a run shares its datasets, trained models and score
/// caches.
pub struct Run {
    opts: CliOptions,
    cfg: GridConfig,
    prepared: Vec<PreparedDataset>,
    /// Tables 2–3 read one saliency grid.
    saliency_cells: OnceCell<Vec<SaliencyCell>>,
    /// Tables 4–6 and Figure 10 read one counterfactual grid.
    cf_cells: OnceCell<Vec<CfCell>>,
}

impl Run {
    /// Prepare `datasets` (in parallel) under `opts`.
    pub fn new(opts: CliOptions, datasets: &[DatasetId]) -> Run {
        let cfg = opts.grid();
        let prepared = prepare(&GridConfig {
            datasets: datasets.to_vec(),
            ..cfg.clone()
        });
        Run {
            opts,
            cfg,
            prepared,
            saliency_cells: OnceCell::new(),
            cf_cells: OnceCell::new(),
        }
    }

    /// The prepared datasets, in the order they were asked for.
    pub fn prepared(&self) -> &[PreparedDataset] {
        &self.prepared
    }

    fn dataset(&self, id: DatasetId) -> &PreparedDataset {
        self.prepared
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("{id} was not prepared for this run"))
    }

    /// Every dataset, for the artifacts that evaluate the whole grid.
    fn grid(&self) -> &[PreparedDataset] {
        assert_eq!(
            self.prepared.len(),
            ALL.len(),
            "the grid artifacts read all twelve datasets"
        );
        &self.prepared
    }

    fn saliency_cells(&self) -> &[SaliencyCell] {
        self.saliency_cells
            .get_or_init(|| run_saliency_grid(self.grid(), &self.cfg, &SaliencyMethod::all()))
    }

    fn cf_cells(&self) -> &[CfCell] {
        self.cf_cells
            .get_or_init(|| run_cf_grid(self.grid(), &self.cfg, &CfMethod::all()))
    }

    /// One Tables 2–6 layout of `metric` over `cells`, the grid's models
    /// and datasets.
    fn grid_table<M: Copy + PartialEq + Display, V>(
        &self,
        title: &str,
        cells: &[Cell<M, V>],
        methods: &[M],
        metric: fn(&V) -> f64,
        lower_is_better: bool,
    ) -> String {
        let cfg = &self.cfg;
        let table = render_grid_table(
            title,
            cells,
            &cfg.models,
            methods,
            &cfg.datasets,
            metric,
            lower_is_better,
        );
        format!("{table}\n")
    }
}

/// All twelve datasets, in Table 1 order (`DatasetId::all()` as a
/// constant).
const ALL: &[DatasetId] = {
    use DatasetId::*;
    &[AB, AG, BA, DA, DS, FZ, IA, WA, DDA, DDS, DIA, DWA]
};

/// Every artifact in paper order, as `repro_all` renders them.
pub static PAPER_ORDER: [&Artifact; 13] = [
    &FIG01_05, &TABLE1, &TABLE2, &TABLE3, &TABLE4, &TABLE5, &TABLE6, &FIG10, &FIG11, &TABLE7,
    &TABLE8, &TABLE9_10, &FIG12,
];

/// Figures 1–5: the introduction walkthrough on Abt-Buy.
///
/// * Figure 1–2: sample record pairs and the three systems' predictions;
/// * Figure 3: saliency explanations (top-2 attributes) of an interesting
///   (ideally misclassified) match pair, per method;
/// * Figure 4: the faithfulness spot-check — copy the top-2 salient
///   attribute values across the pair and re-score;
/// * Figure 5: counterfactual explanations by CERTA vs DiCE, with the score
///   of the modified pair.
pub static FIG01_05: Artifact = Artifact {
    title: "Figures 1-5 — Introduction walkthrough on Abt-Buy",
    datasets: &[DatasetId::AB],
    render: fig01_05,
};

fn fig01_05(run: &Run) -> String {
    let cfg = &run.cfg;
    let p = run.dataset(DatasetId::AB);
    let mut out = String::new();

    // ---- Figures 1-2: sample matching pairs + predictions. -------------
    let matches: Vec<LabeledPair> = p
        .dataset
        .split(Split::Test)
        .iter()
        .filter(|lp| lp.label.is_match())
        .take(3)
        .copied()
        .collect();
    out.push_str("--- Figure 1: sample records ---\n");
    for (i, lp) in matches.iter().enumerate() {
        let (u, v) = p.dataset.expect_pair(lp.pair);
        let _ = writeln!(
            out,
            "u{} = {}",
            i + 1,
            u.display_with(p.dataset.left().schema())
        );
        let _ = writeln!(
            out,
            "v{} = {}",
            i + 1,
            v.display_with(p.dataset.right().schema())
        );
    }
    out.push_str("\n--- Figure 2: predictions (all pairs are true matches) ---\n");
    let mut fig2 = TableBuilder::new("Matching scores").header(
        std::iter::once("Pair".to_string())
            .chain(cfg.models.iter().map(|m| m.paper_name().to_string())),
    );
    let mut interesting: Option<LabeledPair> = None;
    for (i, lp) in matches.iter().enumerate() {
        let (u, v) = p.dataset.expect_pair(lp.pair);
        let mut row = vec![format!("(u{0}, v{0})", i + 1)];
        for &model in &cfg.models {
            let pred = p.zoo.matcher(model).prediction(u, v);
            row.push(format!("{} ({:.2})", pred.label, pred.score));
            if !pred.is_match() && interesting.is_none() {
                interesting = Some(*lp); // a misclassified match, as in Fig. 2
            }
        }
        fig2.row(row);
    }
    let _ = writeln!(out, "{}", fig2.render());

    let Some(target) = interesting.or_else(|| matches.first().copied()) else {
        out.push_str("no match pairs in the test split — stopping after Figure 2\n");
        return out;
    };
    let (u, v) = p.dataset.expect_pair(target.pair);

    // ---- Figures 3-4: saliency explanations + copy spot-check. ---------
    out.push_str("--- Figures 3-4: saliency explanations of the studied pair ---\n");
    for &model in &cfg.models {
        let matcher = p.cached_matcher(model);
        let mut table = TableBuilder::new(format!(
            "{} (original score {:.3})",
            model.paper_name(),
            matcher.score(u, v)
        ))
        .header(["Method", "Top-2 attributes", "Score after copying them"]);
        for method in SaliencyMethod::all() {
            let explainer = method.build(cfg.certa_config(), cfg.seed);
            let top2 = explainer
                .explain_saliency(&matcher, &p.dataset, u, v)
                .top_k(2);
            let names: Vec<String> = top2.iter().map(|a| a.qualified(&p.dataset)).collect();
            let (cu, cv) = copy_salient(u, v, &top2);
            table.row([
                method.paper_name().to_string(),
                names.join(", "),
                format!("{:.3}", matcher.score(&cu, &cv)),
            ]);
        }
        let _ = writeln!(out, "{}", table.render());
    }

    // ---- Figure 5: counterfactuals, CERTA vs DiCE. ----------------------
    out.push_str("--- Figure 5: counterfactual explanations (CERTA vs DiCE) ---\n");
    for &model in &cfg.models {
        let matcher = p.cached_matcher(model);
        let _ = writeln!(
            out,
            "{} on the studied pair (original score {:.3}):",
            model.paper_name(),
            matcher.score(u, v)
        );
        for method in [CfMethod::Certa, CfMethod::Dice] {
            let explainer = method.build(cfg.certa_config(), cfg.seed);
            let cf = explainer.explain_counterfactual(&matcher, &p.dataset, u, v);
            let name = method.paper_name();
            let Some(ex) = cf.examples.first() else {
                let _ = writeln!(out, "  {name:<6} produced no counterfactual");
                continue;
            };
            let changed: Vec<String> = ex.changed.iter().map(|a| a.qualified(&p.dataset)).collect();
            let _ = writeln!(
                out,
                "  {name:<6} score {:.2}  changed [{}]\n         u' = {}\n         v' = {}",
                ex.score,
                changed.join(", "),
                ex.left.display_with(p.dataset.left().schema()),
                ex.right.display_with(p.dataset.right().schema())
            );
        }
        out.push('\n');
    }
    out
}

/// Table 1: dataset characteristics of the twelve generated benchmarks,
/// side by side with the paper's reference numbers. It generates the
/// datasets itself and reads none from the run.
pub static TABLE1: Artifact = Artifact {
    title: "Table 1 — Datasets for experimental evaluation",
    datasets: &[],
    render: table1,
};

fn table1(run: &Run) -> String {
    let rows = table1_rows(run.opts.scale, run.opts.seed);
    let mut table = TableBuilder::new(format!("Generated at scale `{}`", run.opts.scale)).header([
        "Dataset",
        "Matches",
        "Attr.s",
        "Records (L-R)",
        "Values (L-R)",
        "Paper matches",
        "Paper records (L-R)",
    ]);
    for stats in &rows {
        let spec = stats.id.spec();
        table.row([
            stats.id.code().to_string(),
            stats.matches.to_string(),
            stats.attrs.to_string(),
            format!("{} - {}", stats.records.0, stats.records.1),
            format!("{} - {}", stats.values.0, stats.values.1),
            spec.paper_matches.to_string(),
            format!("{} - {}", spec.paper_left, spec.paper_right),
        ]);
    }
    assert_eq!(rows.len(), ALL.len());
    format!("{}\nok: all 12 datasets generated\n", table.render())
}

/// Table 2: faithfulness (masking-AUC, lower = better) of the four saliency
/// methods across the 3 × 12 (model, dataset) grid.
pub static TABLE2: Artifact = Artifact {
    title: "Table 2 — Faithfulness evaluation on saliency explanations",
    datasets: ALL,
    render: |run| {
        run.grid_table(
            "Faithfulness AUC (lower = better; * = best per model block)",
            run.saliency_cells(),
            &SaliencyMethod::all(),
            |v| v.faithfulness,
            true,
        )
    },
};

/// Table 3: confidence indication (MAE, lower = better) of the four
/// saliency methods across the 3 × 12 (model, dataset) grid.
pub static TABLE3: Artifact = Artifact {
    title: "Table 3 — Confidence Indication evaluation on saliency explanations",
    datasets: ALL,
    render: |run| {
        run.grid_table(
            "Confidence indication MAE (lower = better; * = best per model block)",
            run.saliency_cells(),
            &SaliencyMethod::all(),
            |v| v.confidence,
            true,
        )
    },
};

/// Table 4: proximity (higher = better) of the four counterfactual methods.
pub static TABLE4: Artifact = Artifact {
    title: "Table 4 — Proximity evaluation on counterfactual explanations",
    datasets: ALL,
    render: |run| {
        run.grid_table(
            "Proximity (higher = better; * = best per model block)",
            run.cf_cells(),
            &CfMethod::all(),
            |v| v.proximity,
            false,
        )
    },
};

/// Table 5: sparsity (higher = better) of the four counterfactual methods.
pub static TABLE5: Artifact = Artifact {
    title: "Table 5 — Sparsity evaluation on counterfactual explanations",
    datasets: ALL,
    render: |run| {
        run.grid_table(
            "Sparsity (higher = better; * = best per model block)",
            run.cf_cells(),
            &CfMethod::all(),
            |v| v.sparsity,
            false,
        )
    },
};

/// Table 6: diversity (higher = better) of the four counterfactual methods.
pub static TABLE6: Artifact = Artifact {
    title: "Table 6 — Diversity evaluation on counterfactual explanations",
    datasets: ALL,
    render: |run| {
        run.grid_table(
            "Diversity (higher = better; * = best per model block)",
            run.cf_cells(),
            &CfMethod::all(),
            |v| v.diversity,
            false,
        )
    },
};

/// Figure 10: average number of counterfactual examples generated per
/// method, aggregated per classifier across all datasets.
pub static FIG10: Artifact = Artifact {
    title: "Figure 10 — Average number of CF examples per method",
    datasets: ALL,
    render: fig10,
};

fn fig10(run: &Run) -> String {
    let methods = CfMethod::all();
    let mut table = TableBuilder::new("Mean #CF examples (bars of Figure 10)").header(
        std::iter::once("Model".to_string())
            .chain(methods.iter().map(|m| m.paper_name().to_string())),
    );
    for &model in &run.cfg.models {
        let mut row = vec![model.paper_name().to_string()];
        for &method in &methods {
            let vals: Vec<f64> = run
                .cf_cells()
                .iter()
                .filter(|c| c.model == model && c.method == method)
                .map(|c| c.value.count)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            row.push(format!("{mean:.2}"));
        }
        table.row(row);
    }
    format!("{}\n", table.render())
}

/// Figure 11: all seven panel metrics as the triangle budget τ grows, on
/// WA, AB, DDA and IA, averaged across the three classifiers (§5.5). An
/// explicit `--tau` sweeps that one budget.
pub static FIG11: Artifact = Artifact {
    title: "Figure 11 — Metrics vs number of triangles",
    datasets: &[DatasetId::WA, DatasetId::AB, DatasetId::DDA, DatasetId::IA],
    render: fig11,
};

fn fig11(run: &Run) -> String {
    let cfg = &run.cfg;
    let taus: Vec<usize> = match run.opts.tau {
        Some(t) => vec![t],
        None => vec![5, 10, 20, 35, 50, 75, 100],
    };
    let mut out = String::new();
    for &id in FIG11.datasets {
        let p = run.dataset(id);
        let mut table = TableBuilder::new(format!(
            "{id}: averaged over {} classifiers, {} explained pairs",
            cfg.models.len(),
            p.explained.len()
        ))
        .header([
            "tau",
            "(a) suff.",
            "(b) nec.",
            "(c) CI",
            "(d) faith.",
            "(e) prox.",
            "(f) spars.",
            "(g) div.",
        ]);
        for &tau in &taus {
            let mut sums = [0.0; 7];
            for &model in &cfg.models {
                let matcher = p.cached_matcher(model);
                let pt = sweep_point(&matcher, &p.dataset, &p.explained, &cfg.certa_config(), tau);
                let panels = [
                    pt.sufficiency,
                    pt.necessity,
                    pt.confidence,
                    pt.faithfulness,
                    pt.proximity,
                    pt.sparsity,
                    pt.diversity,
                ];
                for (sum, value) in sums.iter_mut().zip(panels) {
                    *sum += value;
                }
            }
            let n = cfg.models.len() as f64;
            table
                .row(std::iter::once(tau.to_string()).chain(sums.map(|s| format!("{:.3}", s / n))));
        }
        let _ = writeln!(out, "{}\n", table.render());
    }
    out
}

/// Table 7: the monotonicity audit — expected / performed / saved lattice
/// predictions and the wrong-inference rate, on AB, BA, WA, DDS and IA
/// (§5.6), averaged across the three classifiers.
pub static TABLE7: Artifact = Artifact {
    title: "Table 7 — Monotonicity assumption audit",
    datasets: &[
        DatasetId::AB,
        DatasetId::BA,
        DatasetId::WA,
        DatasetId::DDS,
        DatasetId::IA,
    ],
    render: table7,
};

fn table7(run: &Run) -> String {
    // Exhaustive lattices on 8 attributes are 254 predictions each; keep the
    // audited triangle budget modest unless overridden.
    let certa = run
        .cfg
        .certa_config()
        .with_triangles(run.opts.tau.unwrap_or(20));
    let mut table = TableBuilder::new("Per-lattice averages (across all three classifiers)")
        .header([
            "Dataset",
            "Attributes",
            "Expected",
            "Performed",
            "Saved",
            "Error rate",
            "Lattices",
        ]);
    let mut out = String::new();
    for &id in TABLE7.datasets {
        let p = run.dataset(id);
        let mut performed = 0.0;
        let mut saved = 0.0;
        let mut err = 0.0;
        let mut lattices = 0usize;
        let mut expected = 0.0;
        let mut attrs = 0usize;
        for &model in &run.cfg.models {
            let matcher = p.cached_matcher(model);
            let a = audit(&matcher, &p.dataset, &p.explained, &certa);
            performed += a.performed * a.lattices as f64;
            saved += a.saved * a.lattices as f64;
            err += a.error_rate * a.lattices as f64;
            lattices += a.lattices;
            expected = a.expected;
            attrs = a.attributes;
        }
        let n = lattices.max(1) as f64;
        table.row([
            id.code().to_string(),
            attrs.to_string(),
            format!("{expected:.0}"),
            format!("{:.2}", performed / n),
            format!("{:.2}", saved / n),
            format!("{:.3}", err / n),
            lattices.to_string(),
        ]);
        let _ = writeln!(out, "  audited {id} ({lattices} lattices)");
    }
    let _ = writeln!(out, "\n{}", table.render());
    out
}

/// Table 8: average number of open triangles CERTA can build *without* data
/// augmentation on BA and FZ (target τ), for DeepMatcher-sim and Ditto-sim
/// (§5.7).
pub static TABLE8: Artifact = Artifact {
    title: "Table 8 — Open triangles without data augmentation (target = τ)",
    datasets: &[DatasetId::BA, DatasetId::FZ],
    render: table8,
};

fn table8(run: &Run) -> String {
    let cfg = &run.cfg;
    let mut table = TableBuilder::new(format!("Average natural triangles (τ = {})", cfg.tau))
        .header(["Dataset", "DeepMatcher", "Ditto"]);
    for &id in TABLE8.datasets {
        let p = run.dataset(id);
        let mut row = vec![id.code().to_string()];
        for model in [ModelKind::DeepMatcher, ModelKind::Ditto] {
            let matcher = p.cached_matcher(model);
            let supply =
                natural_triangle_supply(&matcher, &p.dataset, &p.explained, &cfg.certa_config());
            row.push(format!("{supply:.1}"));
        }
        table.row(row);
    }
    format!("{}\n", table.render())
}

/// Tables 9–10: effect of forcing augmentation-generated open triangles on
/// the explanation metrics, for DeepMatcher-sim (Table 9) and Ditto-sim
/// (Table 10), on BA and FZ (§5.7). Values are
/// `metric(augmentation-only) − metric(default)`; positive
/// proximity/sparsity/diversity and negative faithfulness/CI deltas mean
/// augmentation helps (or at least does not hurt).
pub static TABLE9_10: Artifact = Artifact {
    title: "Tables 9-10 — Effect of augmentation-only open triangles",
    datasets: &[DatasetId::BA, DatasetId::FZ],
    render: table9_10,
};

fn table9_10(run: &Run) -> String {
    let mut out = String::new();
    for (model, label) in [
        (ModelKind::DeepMatcher, "Table 9 (DeepMatcher)"),
        (ModelKind::Ditto, "Table 10 (Ditto)"),
    ] {
        let mut table = TableBuilder::new(label).header([
            "Dataset",
            "ΔProximity",
            "ΔSparsity",
            "ΔDiversity",
            "ΔFaithfulness",
            "ΔCI",
        ]);
        for &id in TABLE9_10.datasets {
            let p = run.dataset(id);
            let matcher = p.cached_matcher(model);
            let eff =
                augmentation_effect(&matcher, &p.dataset, &p.explained, &run.cfg.certa_config());
            table.row([
                id.code().to_string(),
                format!("{:+.3}", eff.proximity),
                format!("{:+.3}", eff.sparsity),
                format!("{:+.3}", eff.diversity),
                format!("{:+.3}", eff.faithfulness),
                format!("{:+.3}", eff.confidence),
            ]);
        }
        let _ = writeln!(out, "{}\n", table.render());
    }
    out
}

/// Figure 12: qualitative case study on the BA dataset with the Ditto-sim
/// classifier — per-attribute actual saliency vs each method, plus Aggr@k
/// (§5.8). One panel per available outcome class (TP / TN / FP / FN).
pub static FIG12: Artifact = Artifact {
    title: "Figure 12 — Case study: Ditto on BA",
    datasets: &[DatasetId::BA],
    render: fig12,
};

fn fig12(run: &Run) -> String {
    let p = run.dataset(DatasetId::BA);
    let matcher = p.cached_matcher(ModelKind::Ditto);
    let methods = SaliencyMethod::all();
    let cases = pick_cases(&matcher, &p.dataset, p.dataset.split(Split::Test));
    if cases.is_empty() {
        return "no test pairs available — nothing to study\n".to_string();
    }

    let mut out = String::new();
    for (lp, kind) in cases {
        let cs = case_study(
            &matcher,
            &p.dataset,
            lp,
            kind,
            &methods,
            run.cfg.certa_config(),
            run.cfg.seed,
        );
        let label = u8::from(lp.label.is_match());
        let mut table = TableBuilder::new(format!("({kind}) Label={label}, Score={:.2}", cs.score))
            .header(
                ["Attribute", "Actual"]
                    .into_iter()
                    .map(str::to_string)
                    .chain(methods.iter().map(|m| m.paper_name().to_string())),
            );
        for row in &cs.rows {
            let mut cells = vec![row.attr.qualified(&p.dataset), format!("{:.3}", row.actual)];
            cells.extend(row.by_method.iter().map(|(_, s)| format!("{s:.3}")));
            table.row(cells);
        }

        let mut aggr = TableBuilder::new("Aggr@k (score change when masking each method's top-k)")
            .header(
                std::iter::once("Method".to_string())
                    .chain((1..=cs.rows.len()).map(|k| format!("@{k}"))),
            );
        for (m, series) in &cs.aggr {
            let mut cells = vec![m.paper_name().to_string()];
            cells.extend(series.iter().map(|v| format!("{v:.2}")));
            aggr.row(cells);
        }
        let _ = writeln!(out, "{}\n{}\n", table.render(), aggr.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_every_dataset_in_table1_order() {
        assert_eq!(ALL, DatasetId::all());
    }

    /// The property that makes each `repro_all` section equal its binary's
    /// output: a run that prepared more datasets (and whose score caches
    /// other artifacts already warmed) renders the same bytes.
    #[test]
    fn a_superset_run_renders_the_same_bytes() {
        let opts = CliOptions::default();
        let superset = Run::new(opts.clone(), &[DatasetId::AB, DatasetId::BA, DatasetId::FZ]);
        let table8 = TABLE8.render(&superset);
        let fig12 = FIG12.render(&superset);
        assert!(table8.contains("FZ"), "{table8}");
        assert!(fig12.contains("Aggr@k"), "{fig12}");
        assert_eq!(
            TABLE8.render(&Run::new(opts.clone(), TABLE8.datasets)),
            table8
        );
        assert_eq!(FIG12.render(&Run::new(opts, FIG12.datasets)), fig12);
    }
}
