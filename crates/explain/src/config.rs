//! CERTA configuration.

use serde::{Deserialize, Serialize};

/// Tunables of the CERTA algorithm (defaults follow §5.3: τ = 100,
/// augmentation on, monotone inference on).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CertaConfig {
    /// Total number of open triangles τ (τ/2 per side).
    pub num_triangles: usize,
    /// Cap on candidate support records scored per side during triangle
    /// discovery (the paper scans the whole table; this bounds worst-case
    /// work on large sources without changing results at our scales).
    pub max_candidates: usize,
    /// Enable §3.3 data augmentation when natural triangles run short.
    pub use_augmentation: bool,
    /// Force *only* augmented triangles (the Tables 9–10 ablation).
    pub augmentation_only: bool,
    /// Cap on returned counterfactual examples; the flip-verified examples
    /// closest to the original input (token-overlap proximity) are kept, as
    /// in the reference implementation. `usize::MAX` disables the cap.
    pub max_examples: usize,
    /// Use the monotone-classifier optimization (§4). Disable to explore
    /// lattices exhaustively (ground truth for the Table 7 audit).
    pub monotone: bool,
    /// Base RNG seed (candidate scan order).
    pub seed: u64,
    /// Worker threads for [`Certa::explain_batch`](crate::Certa), which
    /// fans whole pairs out; one explanation always runs sequentially. `0` =
    /// one per available core. The worker count never changes results —
    /// scheduling only affects wall-clock time, not output (results are
    /// returned in input order).
    pub workers: usize,
}

impl Default for CertaConfig {
    fn default() -> Self {
        CertaConfig {
            num_triangles: 100,
            max_candidates: 2000,
            use_augmentation: true,
            augmentation_only: false,
            max_examples: 10,
            monotone: true,
            seed: 0xCE27A,
            workers: 0,
        }
    }
}

impl CertaConfig {
    /// Builder-style τ override.
    pub fn with_triangles(mut self, tau: usize) -> Self {
        self.num_triangles = tau;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style worker-count override (`0` = one per available core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Effective worker count: the configured value, or the machine's
    /// available parallelism when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Triangles requested per side (τ/2, at least 1).
    pub fn per_side(&self) -> usize {
        (self.num_triangles / 2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CertaConfig::default();
        assert_eq!(c.num_triangles, 100);
        assert_eq!(c.per_side(), 50);
        assert!(c.use_augmentation);
        assert!(c.monotone);
        assert!(!c.augmentation_only);
    }

    #[test]
    fn builders() {
        let c = CertaConfig::default().with_triangles(10).with_seed(9);
        assert_eq!(c.num_triangles, 10);
        assert_eq!(c.per_side(), 5);
        assert_eq!(c.seed, 9);
        assert_eq!(CertaConfig::default().with_triangles(1).per_side(), 1);
    }

    #[test]
    fn worker_settings() {
        let auto = CertaConfig::default();
        assert_eq!(auto.workers, 0, "auto-detect by default");
        assert!(auto.effective_workers() >= 1);
        let fixed = CertaConfig::default().with_workers(3);
        assert_eq!(fixed.effective_workers(), 3);
    }
}
