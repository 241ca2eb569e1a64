//! MinHash + LSH banding: the workhorse blocker.
//!
//! A record's MinHash signature (see [`crate::minhash`]) is split into
//! `num_bands` contiguous bands of `rows = num_hashes / num_bands` hash
//! values each. Two records become candidates when **any** band agrees
//! exactly. A pair with shingle-Jaccard `s` collides in one band with
//! probability `s^rows`, hence overall with `1 − (1 − s^rows)^num_bands` —
//! the classic S-curve whose characteristic threshold is
//! `(1 / num_bands)^(1 / rows)`.
//!
//! # Band nesting and monotonicity
//!
//! Bands partition the signature *sequentially*: band `k` covers
//! `sig[k·rows .. (k+1)·rows]`. When `num_bands` doubles (same
//! `num_hashes`, same seed), each coarse band splits into exactly two fine
//! bands, so a coarse-band collision implies both fine-band collisions:
//! **`candidates(b) ⊆ candidates(2b)`**. More bands never lose a candidate
//! — pinned by `tests/block_props.rs`.

use crate::minhash::{MinHasher, Shingle};
use crate::{finish_pairs, Blocker};
use certa_core::hash::{fx_hash_one, FxHashMap};
use certa_core::{RecordPair, Table};

/// Tuning knobs for [`LshBlocker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Signature length. More hashes sharpen the S-curve at linear cost.
    pub num_hashes: usize,
    /// Number of bands; must divide `num_hashes`. `0` derives the band
    /// count from `target_threshold` (see [`LshConfig::effective_bands`]).
    pub num_bands: usize,
    /// The Jaccard similarity the banding should still catch reliably.
    /// Only consulted when `num_bands == 0`.
    pub target_threshold: f64,
    /// How records are shingled before hashing.
    pub shingle: Shingle,
    /// Seed of the hash family. Same seed ⇒ same candidates, forever.
    pub seed: u64,
    /// Threads for MinHash signing (`0` = one per core): the per-record
    /// shingle-set tasks and the per-coordinate-block tasks of
    /// [`MinHasher::signatures`]. Never affects the output, only the wall
    /// clock.
    pub workers: usize,
}

impl Default for LshConfig {
    /// Defaults tuned on the datagen benchmarks (see `bench_block`):
    /// 3-gram+token shingles absorb the generator's typo/abbreviation
    /// noise, and `target_threshold: 0.75` derives 16 bands of 8 rows — an
    /// S-curve threshold of `(1/16)^(1/8) ≈ 0.71` that keeps the bulk of
    /// matched pairs while rejecting the unrelated-pair mass. (Residual
    /// low-similarity matches are the containment pass's job — see
    /// [`crate::MultiPass::standard`].)
    fn default() -> Self {
        LshConfig {
            num_hashes: 128,
            num_bands: 0,
            target_threshold: 0.75,
            shingle: Shingle::TokensAndCharGrams(3),
            seed: 0xB10C_4A11,
            workers: 0,
        }
    }
}

impl LshConfig {
    /// Validate the configuration, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_hashes == 0 || self.num_hashes > 4096 {
            return Err(format!(
                "num_hashes must be in 1..=4096, got {}",
                self.num_hashes
            ));
        }
        if self.num_bands > 0 && !self.num_hashes.is_multiple_of(self.num_bands) {
            return Err(format!(
                "num_bands ({}) must divide num_hashes ({})",
                self.num_bands, self.num_hashes
            ));
        }
        if self.num_bands == 0 && !(self.target_threshold > 0.0 && self.target_threshold <= 1.0) {
            return Err(format!(
                "target_threshold must be in (0, 1], got {}",
                self.target_threshold
            ));
        }
        Ok(())
    }

    /// The band count actually used: `num_bands` when set, otherwise the
    /// **smallest** divisor `b` of `num_hashes` whose S-curve threshold
    /// `(1/b)^(b/num_hashes)` does not exceed `target_threshold` — the
    /// most selective banding that still catches pairs at the target
    /// similarity. Falls back to `num_hashes` bands (rows = 1) when even
    /// the finest banding sits above the target.
    pub fn effective_bands(&self) -> usize {
        if self.num_bands > 0 {
            return self.num_bands;
        }
        for b in 1..=self.num_hashes {
            if !self.num_hashes.is_multiple_of(b) {
                continue;
            }
            if collision_threshold(b, self.num_hashes / b) <= self.target_threshold {
                return b;
            }
        }
        self.num_hashes
    }
}

/// The characteristic S-curve threshold `(1/bands)^(1/rows)`: pairs more
/// similar than this are caught with probability well above one half.
pub fn collision_threshold(bands: usize, rows: usize) -> f64 {
    (1.0 / bands as f64).powf(1.0 / rows as f64)
}

/// MinHash/LSH candidate generator. See the module docs for the math and
/// the nesting guarantee.
#[derive(Debug, Clone)]
pub struct LshBlocker {
    cfg: LshConfig,
    hasher: MinHasher,
    bands: usize,
}

impl LshBlocker {
    /// Build a blocker, deriving the band count if `cfg.num_bands == 0`.
    pub fn new(cfg: LshConfig) -> Result<LshBlocker, String> {
        cfg.validate()?;
        let bands = cfg.effective_bands();
        Ok(LshBlocker {
            hasher: MinHasher::new(cfg.num_hashes, cfg.shingle, cfg.seed),
            cfg,
            bands,
        })
    }

    /// The configuration this blocker was built from.
    pub fn config(&self) -> &LshConfig {
        &self.cfg
    }

    /// Bands actually in use (after derivation).
    pub fn num_bands(&self) -> usize {
        self.bands
    }

    /// Signature rows hashed per band.
    pub fn rows_per_band(&self) -> usize {
        self.cfg.num_hashes / self.bands
    }

    /// The S-curve threshold of the active banding.
    pub fn threshold(&self) -> f64 {
        collision_threshold(self.bands, self.rows_per_band())
    }

    /// Probability that a pair with shingle-Jaccard `sim` becomes a
    /// candidate: `1 − (1 − sim^rows)^bands`.
    pub fn catch_probability(&self, sim: f64) -> f64 {
        1.0 - (1.0 - sim.powi(self.rows_per_band() as i32)).powi(self.bands as i32)
    }

    /// The MinHash signatures of a table's records, in record order.
    /// Exposed for diagnostics (bench similarity histograms).
    pub fn signatures(&self, table: &Table) -> Vec<Vec<u64>> {
        self.hasher.signatures(table.records(), self.cfg.workers)
    }
}

impl Blocker for LshBlocker {
    fn name(&self) -> String {
        format!(
            "lsh(h={},b={},r={},{})",
            self.cfg.num_hashes,
            self.bands,
            self.rows_per_band(),
            self.cfg.shingle.label()
        )
    }

    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair> {
        let sig_l = self.signatures(left);
        let sig_r = self.signatures(right);
        let rows = self.rows_per_band();
        let mut raw: Vec<(u32, u32)> = Vec::new();
        for band in 0..self.bands {
            let lo = band * rows;
            // Bucket key = hash of (band index, band slice); records with
            // empty signatures (no clean tokens) carry no evidence and are
            // never bucketed.
            let mut buckets: FxHashMap<u64, (Vec<u32>, Vec<u32>)> = FxHashMap::default();
            for (rec, sig) in left.records().iter().zip(&sig_l) {
                if let Some(slice) = sig.get(lo..lo + rows) {
                    let key = fx_hash_one(&(band, slice));
                    buckets.entry(key).or_default().0.push(rec.id().0);
                }
            }
            for (rec, sig) in right.records().iter().zip(&sig_r) {
                if let Some(slice) = sig.get(lo..lo + rows) {
                    let key = fx_hash_one(&(band, slice));
                    buckets.entry(key).or_default().1.push(rec.id().0);
                }
            }
            // Sorted-key iteration keeps emission order canonical before
            // the final sort+dedup seals the output contract.
            let mut keys: Vec<u64> = buckets.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let (ls, rs) = &buckets[&key];
                for &l in ls {
                    for &r in rs {
                        raw.push((l, r));
                    }
                }
            }
        }
        finish_pairs(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{Record, RecordId, Schema};

    fn table(rows: &[&str]) -> Table {
        let mut t = Table::new(Schema::shared("T", ["text"]));
        for (i, row) in rows.iter().enumerate() {
            t.insert(Record::new(RecordId(i as u32), vec![row.to_string()]))
                .expect("arity matches");
        }
        t
    }

    #[test]
    fn config_validation() {
        assert!(LshConfig::default().validate().is_ok());
        let bad_bands = LshConfig {
            num_hashes: 128,
            num_bands: 7,
            ..LshConfig::default()
        };
        assert!(bad_bands.validate().is_err(), "7 does not divide 128");
        let bad_hashes = LshConfig {
            num_hashes: 0,
            ..LshConfig::default()
        };
        assert!(bad_hashes.validate().is_err());
        let bad_threshold = LshConfig {
            target_threshold: 0.0,
            ..LshConfig::default()
        };
        assert!(bad_threshold.validate().is_err());
    }

    #[test]
    fn band_derivation_hits_requested_threshold() {
        for target in [0.9, 0.7, 0.5, 0.3, 0.1] {
            let cfg = LshConfig {
                target_threshold: target,
                ..LshConfig::default()
            };
            let b = cfg.effective_bands();
            let r = cfg.num_hashes / b;
            assert!(
                collision_threshold(b, r) <= target,
                "threshold {} for target {target}",
                collision_threshold(b, r)
            );
            // Minimality: the next-smaller divisor (if any) overshoots.
            if let Some(smaller) = (1..b)
                .rev()
                .find(|cand| cfg.num_hashes.is_multiple_of(*cand) && *cand < b)
            {
                assert!(collision_threshold(smaller, cfg.num_hashes / smaller) > target);
            }
        }
    }

    #[test]
    fn explicit_bands_win_over_threshold() {
        let cfg = LshConfig {
            num_bands: 32,
            target_threshold: 0.99,
            ..LshConfig::default()
        };
        assert_eq!(cfg.effective_bands(), 32);
        let blocker = LshBlocker::new(cfg).expect("valid");
        assert_eq!(blocker.num_bands(), 32);
        assert_eq!(blocker.rows_per_band(), 4);
    }

    #[test]
    fn duplicates_collide_unrelated_records_rarely_do() {
        let left = table(&[
            "apple iphone 12 pro max 256gb pacific blue",
            "weber genesis ii e-310 gas grill black",
            "lego star wars millennium falcon 75257",
        ]);
        let right = table(&[
            "aple iphone 12 pro max 256 gb pacific blue", // typo'd duplicate of L0
            "dyson v11 torque drive cordless vacuum",
            "lego star wars milennium falcon 75257 kit", // near-duplicate of L2
        ]);
        let blocker = LshBlocker::new(LshConfig::default()).expect("valid");
        let cands = blocker.candidates(&left, &right);
        assert!(cands.contains(&RecordPair::new(RecordId(0), RecordId(0))));
        assert!(cands.contains(&RecordPair::new(RecordId(2), RecordId(2))));
        assert!(
            !cands.contains(&RecordPair::new(RecordId(1), RecordId(1))),
            "grill and vacuum must not collide"
        );
    }

    #[test]
    fn output_is_sorted_and_deduped() {
        let rows: Vec<String> = (0..40)
            .map(|i| format!("common prefix tokens item number {}", i % 7))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let t = table(&refs);
        let blocker = LshBlocker::new(LshConfig::default()).expect("valid");
        let cands = blocker.candidates(&t, &t);
        let mut sorted = cands.clone();
        sorted.sort_unstable_by_key(|p| (p.left.0, p.right.0));
        sorted.dedup();
        assert_eq!(cands, sorted, "contract: sorted by (left, right), deduped");
        assert!(!cands.is_empty());
    }

    #[test]
    fn empty_records_never_become_candidates() {
        let left = table(&["", "   ", "real product name"]);
        let right = table(&["", "real product name"]);
        let blocker = LshBlocker::new(LshConfig::default()).expect("valid");
        let cands = blocker.candidates(&left, &right);
        for p in &cands {
            assert_eq!(p.left, RecordId(2), "only the non-empty record may match");
            assert_eq!(p.right, RecordId(1));
        }
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn catch_probability_is_monotone_s_curve() {
        let blocker = LshBlocker::new(LshConfig::default()).expect("valid");
        let (mut prev, mut sims) = (0.0, vec![]);
        for i in 0..=10 {
            let s = i as f64 / 10.0;
            let p = blocker.catch_probability(s);
            assert!(p >= prev - 1e-12, "monotone in sim");
            prev = p;
            sims.push(p);
        }
        assert!(sims[0] < 1e-9);
        assert!(sims[10] > 1.0 - 1e-9);
    }
}
