//! Column-aligned plain-text table rendering for experiment outputs.

use crate::grid::Cell;
use certa_datagen::DatasetId;
use certa_models::ModelKind;
use std::fmt::Display;

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// New table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        TableBuilder {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the header cells.
    pub fn header(mut self, cols: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append one row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            self.header.is_empty() || row.len() == self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self.header.len().max(self.rows.first().map_or(0, Vec::len));
        let mut w = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }

    /// Render as column-aligned plain text.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let render_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&render_row(&self.header));
            out.push('\n');
            out.push_str(
                &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Assemble a Tables 2–6 style layout: rows = datasets, one column per
/// (model, method) holding `metric` of that cell's value; the best value
/// per model block (the lowest when `lower_is_better`, else the highest)
/// is starred, and a missing cell reads `NaN`.
pub fn render_grid_table<M: Copy + PartialEq + Display, V>(
    title: &str,
    cells: &[Cell<M, V>],
    models: &[ModelKind],
    methods: &[M],
    datasets: &[DatasetId],
    metric: impl Fn(&V) -> f64,
    lower_is_better: bool,
) -> String {
    let mut header: Vec<String> = vec!["Dataset".into()];
    for m in models {
        for meth in methods {
            header.push(format!("{}:{meth}", m.paper_name()));
        }
    }
    let mut table = TableBuilder::new(title).header(header);
    for &d in datasets {
        let mut row: Vec<String> = vec![d.code().to_string()];
        for &m in models {
            let block: Vec<f64> = methods
                .iter()
                .map(|&meth| {
                    cells
                        .iter()
                        .find(|c| c.dataset == d && c.model == m && c.method == meth)
                        .map_or(f64::NAN, |c| metric(&c.value))
                })
                .collect();
            let finite = block.iter().copied().filter(|v| v.is_finite());
            let best = if lower_is_better {
                finite.fold(f64::INFINITY, f64::min)
            } else {
                finite.fold(f64::NEG_INFINITY, f64::max)
            };
            for v in block {
                let star = if v.is_finite() && (v - best).abs() < 1e-9 {
                    "*"
                } else {
                    ""
                };
                row.push(format!("{v:.3}{star}"));
            }
        }
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf_metrics::CfAggregate;
    use crate::grid::SaliencyAggregate;
    use certa_baselines::{CfMethod, SaliencyMethod};

    #[test]
    fn plain_render_aligns_columns() {
        let mut t = TableBuilder::new("Demo").header(["a", "long-header", "c"]);
        t.row(["1", "2", "3"]);
        t.row(["xxxx", "y", "zz"]);
        let out = t.render();
        assert!(out.starts_with("Demo\n"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
        assert!(lines[1].contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = TableBuilder::new("t").header(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn saliency_table_stars_the_best() {
        let cell = |method, faithfulness| Cell {
            dataset: DatasetId::AB,
            model: ModelKind::Ditto,
            method,
            value: SaliencyAggregate {
                faithfulness,
                confidence: 0.0,
            },
        };
        let cells = vec![
            cell(SaliencyMethod::Certa, 0.1),
            cell(SaliencyMethod::Shap, 0.5),
        ];
        let out = render_grid_table(
            "T",
            &cells,
            &[ModelKind::Ditto],
            &[SaliencyMethod::Certa, SaliencyMethod::Shap],
            &[DatasetId::AB],
            |v| v.faithfulness,
            true,
        );
        assert!(out.contains("Ditto:certa"), "{out}");
        assert!(out.contains("0.100*"));
        assert!(out.contains("0.500"));
        assert!(!out.contains("0.500*"));
    }

    #[test]
    fn cf_table_renders_requested_metric() {
        let cell = |method, sparsity| Cell {
            dataset: DatasetId::FZ,
            model: ModelKind::DeepEr,
            method,
            value: CfAggregate {
                proximity: 0.7,
                sparsity,
                diversity: 0.2,
                count: 3.0,
                pairs: 4,
            },
        };
        let cells = vec![cell(CfMethod::Dice, 0.9), cell(CfMethod::LimeC, 0.4)];
        let out = render_grid_table(
            "T",
            &cells,
            &[ModelKind::DeepEr],
            &[CfMethod::Dice, CfMethod::LimeC],
            &[DatasetId::FZ],
            |v| v.sparsity,
            false,
        );
        assert!(out.contains("0.900*"), "{out}");
        assert!(out.contains("0.400") && !out.contains("0.400*"));
    }
}
