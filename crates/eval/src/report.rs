//! Column-aligned plain-text table rendering for experiment outputs.

use crate::grid::{CfCell, SaliencyCell};
use certa_baselines::{CfMethod, SaliencyMethod};
use certa_datagen::DatasetId;
use certa_models::ModelKind;

use crate::cf_metrics::CfMetricKind;

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

/// Assemble a Tables 2–3 style layout: rows = datasets, one column per
/// (model, method); the best (lowest or highest) value per model block is
/// starred.
pub fn render_saliency_table(
    title: &str,
    cells: &[SaliencyCell],
    models: &[ModelKind],
    methods: &[SaliencyMethod],
    datasets: &[DatasetId],
    lower_is_better: bool,
) -> String {
    let mut header: Vec<String> = vec!["Dataset".into()];
    for m in models {
        for meth in methods {
            header.push(format!("{}:{}", m.paper_name(), meth.paper_name()));
        }
    }
    let mut table = TableBuilder::new(title).header(header);
    for &d in datasets {
        let mut row: Vec<String> = vec![d.code().to_string()];
        for &m in models {
            let block: Vec<(SaliencyMethod, f64)> = methods
                .iter()
                .map(|&meth| {
                    let v = cells
                        .iter()
                        .find(|c| c.dataset == d && c.model == m && c.method == meth)
                        .map_or(f64::NAN, |c| c.value);
                    (meth, v)
                })
                .collect();
            let best = block
                .iter()
                .map(|&(_, v)| v)
                .filter(|v| v.is_finite())
                .fold(
                    if lower_is_better {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    },
                    |a, b| {
                        if lower_is_better {
                            a.min(b)
                        } else {
                            a.max(b)
                        }
                    },
                );
            for (_, v) in block {
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

/// Assemble a Tables 4–6 / Figure 10 style layout for one counterfactual
/// metric.
pub fn render_cf_table(
    title: &str,
    cells: &[CfCell],
    models: &[ModelKind],
    methods: &[CfMethod],
    datasets: &[DatasetId],
    metric: CfMetricKind,
) -> String {
    let mut header: Vec<String> = vec!["Dataset".into()];
    for m in models {
        for meth in methods {
            header.push(format!("{}:{}", m.paper_name(), meth.paper_name()));
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
                        .map_or(f64::NAN, |c| c.value.get(metric))
                })
                .collect();
            let best = block
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
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
        let cells = vec![
            SaliencyCell {
                dataset: DatasetId::AB,
                model: ModelKind::Ditto,
                method: SaliencyMethod::Certa,
                value: 0.1,
            },
            SaliencyCell {
                dataset: DatasetId::AB,
                model: ModelKind::Ditto,
                method: SaliencyMethod::Shap,
                value: 0.5,
            },
        ];
        let out = render_saliency_table(
            "T",
            &cells,
            &[ModelKind::Ditto],
            &[SaliencyMethod::Certa, SaliencyMethod::Shap],
            &[DatasetId::AB],
            true,
        );
        assert!(out.contains("0.100*"));
        assert!(out.contains("0.500"));
        assert!(!out.contains("0.500*"));
    }

    #[test]
    fn cf_table_renders_requested_metric() {
        let cells = vec![CfCell {
            dataset: DatasetId::FZ,
            model: ModelKind::DeepEr,
            method: CfMethod::Dice,
            value: CfAggregate {
                proximity: 0.7,
                sparsity: 0.9,
                diversity: 0.2,
                count: 3.0,
                pairs: 4,
            },
        }];
        let out = render_cf_table(
            "T",
            &cells,
            &[ModelKind::DeepEr],
            &[CfMethod::Dice],
            &[DatasetId::FZ],
            CfMetricKind::Sparsity,
        );
        assert!(out.contains("0.900"));
    }
}
