//! Warm start: everything a `--store-dir` adds to model resolution.
//!
//! The registry holds one [`WarmStart`] only when the server has a store
//! directory. It binds the store to the server's `(scale, seed)` world and
//! owns load-or-train-then-persist, the repository index with per-model
//! transfer quality (behind this module's one lock), and partition
//! save/load. A verified artifact pair skips training: the decoded model
//! scores bit-identically to the trained one, so the byte-equality
//! guarantee is unchanged.
//!
//! Both model sources, cold training and `--transfer nearest`, persist
//! through one save step: the dataset (unless it was loaded from the
//! store), then the signed model, stopping at the first failure, which
//! counts once in `store_save_errors`. A successful save folds the entry
//! it wrote into a held index. A failed one leaves the index alone, since
//! an atomic write lands a complete file or nothing. Only `/v1/reload`
//! drops the index.

use crate::state::{ModelEntry, PartitionEntry, RegistryCounters, ServeConfig, TransferMode};
use certa_core::{lockcheck, Dataset};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{fine_tune_model, train_model, ErModel, ModelKind, TrainConfig};
use certa_store::{
    build_signature, decode_er_model, peek_model_kind, ModelStore, Repository, StoreError,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Quality record of one nearest-model transfer, per canonical model name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TransferQuality {
    /// Signature similarity between the target dataset and the donor.
    pub(crate) similarity: f64,
    /// Test-split F1 of the fine-tuned (served) model.
    pub(crate) tuned_f1: f64,
}

/// The repository index plus per-model transfer quality, behind one lock.
#[derive(Default)]
struct TransferState {
    /// `None` until the first transfer attempt scans the store, and again
    /// after [`WarmStart::drop_index`].
    repo: Option<Repository>,
    quality: BTreeMap<String, TransferQuality>,
}

/// The store handle bound to one `(scale, seed)` world.
pub(crate) struct WarmStart {
    store: ModelStore,
    scale: Scale,
    seed: u64,
    /// The donor similarity floor under `--transfer nearest`.
    transfer_floor: Option<f64>,
    state: Mutex<TransferState>,
}

impl WarmStart {
    /// The warm-start owner for a store rooted at `dir`.
    pub(crate) fn new(dir: &Path, config: &ServeConfig) -> Self {
        WarmStart {
            store: ModelStore::new(dir),
            scale: config.scale,
            seed: config.seed,
            transfer_floor: (config.transfer == TransferMode::Nearest)
                .then_some(config.transfer_floor),
            state: Mutex::new(TransferState::default()),
        }
    }

    /// Run `f` under the state lock. Lockcheck tracks it at key 2, after
    /// the registry's entries (0) and partitions (1), so the order stays
    /// distinct even where the two owners' addresses coincide.
    fn locked<R>(&self, f: impl FnOnce(&mut TransferState) -> R) -> R {
        let owner = self as *const WarmStart as usize;
        let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
        f(&mut self.state.lock())
    }

    /// Count one failed best-effort save of `what` and log it; the request
    /// that triggered the save still succeeds.
    fn persist_failed(&self, what: &str, e: &StoreError, counters: &RegistryCounters) {
        counters.store_save_errors.inc();
        eprintln!(
            "certa-serve: could not persist {what} to {}: {e}",
            self.store.dir().display()
        );
    }

    /// Load-or-train-then-persist for the canonical model `name`. Any load
    /// failure (absent files, checksum mismatch, stale format version) is a
    /// store miss. A dataset that loaded without its model is reused:
    /// decoded datasets featurize bit-identically to generated ones.
    pub(crate) fn load_or_train(
        &self,
        dataset_id: DatasetId,
        kind: ModelKind,
        name: &str,
        counters: &RegistryCounters,
    ) -> (Dataset, ErModel) {
        let t0 = Instant::now();
        let (dataset, dataset_was_stored) =
            match self.store.load_dataset(dataset_id, self.scale, self.seed) {
                Ok(dataset) => {
                    let model = self
                        .store
                        .load_model(dataset_id, kind, self.scale, self.seed);
                    // Whatever actually loaded counts toward the load-latency
                    // metric, even when the entry still has to train.
                    counters
                        .store_load_micros
                        .add(t0.elapsed().as_micros() as u64);
                    if let Ok(model) = model {
                        counters.store_hits.inc();
                        return (dataset, model);
                    }
                    (dataset, true)
                }
                Err(_) => (generate(dataset_id, self.scale, self.seed), false),
            };
        counters.store_misses.inc();
        let model = self
            .transfer(kind, name, &dataset, counters)
            .unwrap_or_else(|| train_model(kind, &dataset, &TrainConfig::for_kind(kind)).0);
        // The one save step, whichever source built the model.
        let (scale, seed) = (self.scale, self.seed);
        let dataset_saved = if dataset_was_stored {
            Ok(())
        } else {
            self.store
                .save_dataset(dataset_id, scale, seed, &dataset)
                .map(drop)
        };
        let saved = dataset_saved.and_then(|()| {
            self.store
                .save_model_signed(dataset_id, kind, scale, seed, &model, &dataset)
        });
        match saved {
            // An index not yet scanned will find the file instead.
            Ok(entry) => self.locked(|t| {
                if let Some(repo) = &mut t.repo {
                    repo.add(entry);
                }
            }),
            Err(e) => self.persist_failed(name, &e, counters),
        }
        (dataset, model)
    }

    /// The `--transfer nearest` warm start behind a store miss: fine-tune
    /// the most similar same-family stored model at or above the floor
    /// instead of cold-initializing. `bench_repo` gates the quality cost
    /// against a cold train offline, so serving never trains twice.
    /// `None` when transfer is off, or (counted as a transfer miss) when no
    /// donor qualifies.
    fn transfer(
        &self,
        kind: ModelKind,
        name: &str,
        dataset: &Dataset,
        counters: &RegistryCounters,
    ) -> Option<ErModel> {
        let floor = self.transfer_floor?;
        let query = build_signature(dataset);
        // Scan outside the lock (it reads every model artifact's signature
        // section), then install the index if still absent.
        let index = match self.locked(|t| t.repo.clone()) {
            Some(repo) => repo,
            None => {
                let scanned = Repository::scan(&self.store).unwrap_or_default();
                self.locked(|t| t.repo.get_or_insert(scanned).clone())
            }
        };
        let ranked = index.nearest(&query, index.len());
        let found = ranked
            .into_iter()
            .filter(|(similarity, _)| *similarity >= floor)
            .find_map(|(similarity, donor)| {
                let bytes = std::fs::read(&donor.path).ok()?;
                // Cheap family gate before decoding any weights.
                if peek_model_kind(&bytes) != Ok(kind) {
                    return None;
                }
                let base = decode_er_model(&bytes).ok()?;
                let cfg = TrainConfig::for_kind(kind);
                let (tuned, report) = fine_tune_model(kind, dataset, &base, &cfg)?;
                let quality = TransferQuality {
                    similarity,
                    tuned_f1: report.test_f1,
                };
                Some((tuned, quality))
            });
        let Some((tuned, quality)) = found else {
            counters.transfer_misses.inc();
            return None;
        };
        counters.transfer_hits.inc();
        self.locked(|t| t.quality.insert(name.to_string(), quality));
        Some(tuned)
    }

    /// Persist a `/v1/cluster` partition so the next process serves
    /// `/v1/entity` without re-clustering. Best-effort, like model saves.
    pub(crate) fn save_partition(
        &self,
        entry: &ModelEntry,
        held: &PartitionEntry,
        counters: &RegistryCounters,
    ) {
        let saved = self.store.save_partition(
            entry.dataset_id,
            entry.kind,
            self.scale,
            self.seed,
            &held.partition,
            &held.clusterer,
            held.threshold,
        );
        if let Err(e) = saved {
            self.persist_failed(&format!("partition for {}", entry.name), &e, counters);
        }
    }

    /// A verified persisted partition for `entry`'s world, if one exists.
    pub(crate) fn load_partition(
        &self,
        entry: &ModelEntry,
        counters: &RegistryCounters,
    ) -> Option<PartitionEntry> {
        let t0 = Instant::now();
        let loaded = self
            .store
            .load_partition(entry.dataset_id, entry.kind, self.scale, self.seed)
            .ok()?;
        counters
            .store_load_micros
            .add(t0.elapsed().as_micros() as u64);
        Some(PartitionEntry {
            partition: Arc::new(loaded.partition),
            clusterer: loaded.clusterer,
            threshold: loaded.threshold,
        })
    }

    /// Drop the repository index, so the next transfer rescans the store.
    pub(crate) fn drop_index(&self) {
        self.locked(|t| t.repo = None);
    }

    /// Donor similarity and tuned test-F1 per transferred model.
    pub(crate) fn quality(&self) -> BTreeMap<String, TransferQuality> {
        self.locked(|t| t.quality.clone())
    }
}
