//! A small (features, labels) container with standardization helpers.

/// A dense training set: row-major features plus parallel labels.
#[derive(Debug, Clone, Default)]
pub struct TrainSet {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl TrainSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one example.
    ///
    /// # Panics
    /// Panics when the feature width differs from previous rows.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        if let Some(first) = self.xs.first() {
            assert_eq!(first.len(), x.len(), "ragged feature rows");
        }
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no examples were added.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature width (0 when empty).
    pub fn dim(&self) -> usize {
        self.xs.first().map_or(0, Vec::len)
    }

    /// Feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Labels.
    pub fn labels(&self) -> &[f64] {
        &self.ys
    }

    /// Fraction of labels above 0.5 (class balance diagnostics).
    pub fn positive_rate(&self) -> f64 {
        if self.ys.is_empty() {
            return 0.0;
        }
        self.ys.iter().filter(|&&y| y > 0.5).count() as f64 / self.ys.len() as f64
    }

    /// Fit per-column mean/std for standardization.
    pub fn fit_standardizer(&self) -> Standardizer {
        let d = self.dim();
        let n = self.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for x in &self.xs {
            for (m, v) in mean.iter_mut().zip(x.iter()) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut var = vec![0.0; d];
        for x in &self.xs {
            for ((s, v), m) in var.iter_mut().zip(x.iter()).zip(mean.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-9)).collect();
        Standardizer { mean, std }
    }
}

/// Per-column (x − mean) / std transform fitted on a training set and applied
/// to training *and* inference features, so the matcher sees consistent
/// scales.
#[derive(Debug, Clone)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Identity transform of width `d` (mean 0, std 1).
    pub fn identity(d: usize) -> Self {
        Standardizer {
            mean: vec![0.0; d],
            std: vec![1.0; d],
        }
    }

    /// Rebuild from exported columns (the persistence path).
    ///
    /// # Panics
    /// Panics when the two vectors differ in length.
    pub fn from_parts(mean: Vec<f64>, std: Vec<f64>) -> Self {
        assert_eq!(mean.len(), std.len(), "mean/std width mismatch");
        Standardizer { mean, std }
    }

    /// Per-column means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-column standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Feature width this transform expects.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Transform one row in place.
    pub fn apply(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "standardizer width mismatch");
        for i in 0..x.len() {
            x[i] = (x[i] - self.mean[i]) / self.std[i];
        }
    }

    /// Transform a copy.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_stats() {
        let mut ts = TrainSet::new();
        ts.push(vec![1.0, 10.0], 1.0);
        ts.push(vec![3.0, 30.0], 0.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dim(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.positive_rate(), 0.5);
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let mut ts = TrainSet::new();
        ts.push(vec![1.0], 0.0);
        ts.push(vec![3.0], 0.0);
        let st = ts.fit_standardizer();
        let a = st.transform(&[1.0]);
        let b = st.transform(&[3.0]);
        assert!((a[0] + 1.0).abs() < 1e-9);
        assert!((b[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let mut ts = TrainSet::new();
        ts.push(vec![5.0], 0.0);
        ts.push(vec![5.0], 1.0);
        let st = ts.fit_standardizer();
        let t = st.transform(&[5.0]);
        assert!(t[0].is_finite());
        assert_eq!(t[0], 0.0);
    }

    #[test]
    fn identity_standardizer_is_noop() {
        let st = Standardizer::identity(3);
        assert_eq!(st.transform(&[1.0, -2.0, 0.5]), vec![1.0, -2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let mut ts = TrainSet::new();
        ts.push(vec![1.0], 0.0);
        ts.push(vec![1.0, 2.0], 0.0);
    }
}
