//! Server state: configuration and the model registry.
//!
//! The registry resolves `"<dataset>/<model>"` names (e.g.
//! `"FZ/DeepMatcher"`) by generating the named synthetic dataset through
//! `certa-datagen` and training the named matcher family through
//! `certa-models`, exactly as the in-process experiment grid does. Each
//! resolved entry wraps its matcher in the sharded [`CachingMatcher`] and
//! owns a [`Certa`] explainer configured from the server's `(seed, τ)` — so
//! a served explanation is *the same computation* as an in-process
//! [`Certa::explain_batch`] call with the same configuration, which is what
//! makes the byte-equality guarantee (and `bench_serve_load`'s check of it)
//! possible.
//!
//! Resolution is lazy and memoized: the first request for a name pays the
//! generate+train cost once (concurrent requests for the same name block on
//! one `OnceLock` initializer; different names never block each other), and
//! every later request reuses the entry and its warm score cache.
//!
//! With a `--store-dir`, first-touch resolution goes through `certa-store`
//! instead: load-or-train-then-persist. A verified artifact pair for the
//! `(dataset, model, scale, seed)` world skips training entirely (the
//! decoded model scores bit-identically to the trained one, so the
//! byte-equality guarantee is unchanged); a miss trains as before and
//! persists the artifacts so the *next* process warm-starts. `/metrics`
//! reports hits, misses, and cumulative load latency.

use crate::http::HttpError;
use crate::ops::{Counter, Exposition, Kind};
use certa_cluster::Partition;
use certa_core::{lockcheck, BoxedMatcher, Dataset, Record, Side};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::{Certa, CertaConfig};
use certa_models::{
    fine_tune_model, train_model, CacheStats, CachingMatcher, ErModel, ModelKind, TrainConfig,
};
use certa_store::{
    build_signature, decode_er_model, peek_model_kind, ModelSignature, ModelStore, Repository,
    StoreError,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How first-touch resolution treats a store miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// A store miss trains cold (the pre-repository behaviour). Default.
    Off,
    /// A store miss first searches the repository index for the nearest
    /// stored model (by dataset-signature similarity) above
    /// [`ServeConfig::transfer_floor`] and, when one exists in the same
    /// family, warm-starts by fine-tuning from its persisted weights
    /// instead of a cold init. The result is persisted signed, so the
    /// next process gets a plain store hit.
    Nearest,
}

impl std::str::FromStr for TransferMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TransferMode::Off),
            "nearest" => Ok(TransferMode::Nearest),
            other => Err(format!("unknown transfer mode `{other}` (off|nearest)")),
        }
    }
}

impl std::fmt::Display for TransferMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransferMode::Off => "off",
            TransferMode::Nearest => "nearest",
        })
    }
}

/// Serving configuration (model world + HTTP tunables).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dataset scale every registry entry is generated at.
    pub scale: Scale,
    /// Master seed: dataset generation, training, and CERTA's candidate
    /// scans all derive from it, so `(scale, seed, tau)` pins every byte of
    /// every response.
    pub seed: u64,
    /// CERTA triangle budget τ.
    pub tau: usize,
    /// Worker threads of `explain_batch`'s pair pool, which explains the
    /// pairs of one batch request (`/v1/explain_batch`, or `/v1/block` with
    /// `explain_top`); 1 = one pair at a time, 0 = one per available core.
    /// One explanation always runs sequentially, and request-level
    /// parallelism comes from the HTTP worker pool.
    pub explain_workers: usize,
    /// HTTP worker threads (0 = one per available core, resolved by
    /// [`certa_core::worker_count`]).
    pub http_workers: usize,
    /// Cap on open connections (one more gets `503` at the door) and on
    /// parsed requests queued for the worker pool (`503` past it).
    pub queue_depth: usize,
    /// Bound on request bodies (`413` beyond it).
    pub max_body_bytes: usize,
    /// Idle-reap timeout: a connection with nothing in flight and no bytes
    /// received for this long is closed (counted in
    /// `certa_serve_conn_timeouts_total`).
    pub read_timeout: Duration,
    /// Maximum pipelined requests queued per connection before the reactor
    /// stops reading from that socket (TCP backpressure; the overflow is
    /// visible in `certa_serve_conn_pipeline_overflows_total`).
    pub max_pipeline: usize,
    /// Per-tenant admission rate in requests/second (0 disables limiting).
    /// Tenants are identified by the `x-tenant` header (absent = the
    /// `"default"` tenant); beyond the budget requests get a structured
    /// `429`.
    pub tenant_rps: u64,
    /// Per-tenant burst allowance in requests (token-bucket capacity).
    pub tenant_burst: u64,
    /// Warm-start directory: when set, first-touch resolution tries
    /// `certa-store` artifacts for the `(dataset, model, scale, seed)`
    /// world before generating + training, and persists freshly trained
    /// entries back (load-or-train-then-persist). `None` keeps the PR-3
    /// train-on-first-request behaviour.
    pub store_dir: Option<PathBuf>,
    /// Store-miss strategy: [`TransferMode::Nearest`] warm-starts from the
    /// nearest stored model instead of always training cold. Only
    /// meaningful with a `store_dir`.
    pub transfer: TransferMode,
    /// Minimum dataset-signature similarity for a stored model to qualify
    /// as a warm-start donor. Sibling seeds of one generator family land
    /// around 0.4; unrelated schemas score 0.
    pub transfer_floor: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scale: Scale::Smoke,
            seed: 7,
            tau: 100,
            explain_workers: 1,
            http_workers: 0,
            queue_depth: 512,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(5),
            max_pipeline: 64,
            tenant_rps: 0,
            tenant_burst: 32,
            store_dir: None,
            transfer: TransferMode::Off,
            transfer_floor: 0.25,
        }
    }
}

impl ServeConfig {
    /// The CERTA configuration served entries use — the same formula the
    /// evaluation grid's `GridConfig::certa_config()` applies, so server
    /// responses are byte-comparable against in-process runs with the same
    /// `(seed, tau)`.
    pub fn certa_config(&self) -> CertaConfig {
        CertaConfig::default()
            .with_triangles(self.tau)
            .with_seed(self.seed)
            .with_workers(self.explain_workers)
    }
}

/// One resolved `"<dataset>/<model>"`: the generated dataset, the trained
/// matcher behind its score cache, and the configured explainer.
pub struct ModelEntry {
    /// Canonical name (`"FZ/DeepMatcher"`).
    pub name: String,
    /// Which benchmark dataset.
    pub dataset_id: DatasetId,
    /// Which model family.
    pub kind: ModelKind,
    /// The generated dataset (perturbation donors, id lookups).
    pub dataset: Dataset,
    /// The trained model itself (featurizer-memo statistics live here).
    pub model: Arc<ErModel>,
    /// The sharded score cache wrapping the trained matcher.
    pub cache: Arc<CachingMatcher>,
    /// The CERTA explainer for this entry.
    pub certa: Certa,
}

impl ModelEntry {
    /// The cached matcher as a [`BoxedMatcher`].
    pub fn matcher(&self) -> BoxedMatcher {
        Arc::clone(&self.cache) as BoxedMatcher
    }

    /// Resolve one request-side record: inline records pass through,
    /// id references look up the named table.
    pub fn resolve_record<'a>(
        &'a self,
        dto: &'a crate::wire::RecordDto,
        side: Side,
        field: &str,
    ) -> Result<&'a Record, HttpError> {
        match dto {
            crate::wire::RecordDto::Inline(r) => {
                let arity = self.dataset.table(side).schema().arity();
                if r.arity() != arity {
                    return Err(HttpError::bad_request(
                        "arity_mismatch",
                        format!(
                            "field `{field}`: record has {} values but the {} table of {} has {arity} attributes",
                            r.arity(),
                            match side {
                                Side::Left => "left",
                                Side::Right => "right",
                            },
                            self.dataset_id,
                        ),
                    ));
                }
                Ok(r)
            }
            crate::wire::RecordDto::ById(id) => {
                self.dataset.table(side).get(*id).map_err(|_| HttpError {
                    status: 404,
                    code: "unknown_record",
                    message: format!(
                        "field `{field}`: no record {id} in the {} table of {}",
                        match side {
                            Side::Left => "left",
                            Side::Right => "right",
                        },
                        self.dataset_id,
                    ),
                    keep_alive: true,
                })
            }
        }
    }
}

type EntrySlot = Arc<OnceLock<Arc<ModelEntry>>>;

/// One clustered partition held for `/v1/entity` lookups: the result of the
/// latest `POST /v1/cluster` run for a model (or a warm-started artifact).
pub struct PartitionEntry {
    /// The resolved entities.
    pub partition: Arc<Partition>,
    /// Which clusterer produced it (`"connected-components"`, …).
    pub clusterer: String,
    /// The match threshold it was clustered at.
    pub threshold: f64,
}

/// The registry's counters, rendered into `/metrics` by
/// [`Registry::render`]. Store and transfer counters stay zero without a
/// `--store-dir` and with [`TransferMode::Off`] respectively.
#[derive(Debug, Default)]
pub struct RegistryCounters {
    /// Entries materialized by loading persisted artifacts.
    pub store_hits: Counter,
    /// Entries that had to be trained (then persisted, when a store is
    /// configured).
    pub store_misses: Counter,
    /// Cumulative wall time spent loading from the store, in microseconds.
    pub store_load_micros: Counter,
    /// Best-effort persistence failures (model, dataset, or partition
    /// saves). Non-zero on a read-only or broken store directory.
    pub store_save_errors: Counter,
    /// Store misses warm-started by fine-tuning the nearest stored model.
    pub transfer_hits: Counter,
    /// Store misses under `--transfer nearest` that found no donor and
    /// trained cold.
    pub transfer_misses: Counter,
    /// `/v1/block` runs.
    pub block_runs: Counter,
    /// Candidate pairs those runs generated.
    pub block_candidates: Counter,
    /// `/v1/cluster` runs.
    pub cluster_runs: Counter,
    /// Entities those runs resolved.
    pub cluster_entities: Counter,
    /// `/v1/entity` partition lookups.
    pub entity_lookups: Counter,
}

/// Quality record of one nearest-model transfer, per canonical model name.
#[derive(Debug, Clone, Copy)]
struct TransferQuality {
    /// Signature similarity between the target dataset and the donor.
    similarity: f64,
    /// Test-split F1 of the fine-tuned (served) model.
    tuned_f1: f64,
}

/// Transfer-mode state behind one lock: the lazily scanned repository
/// index plus per-model quality records for `/metrics`.
#[derive(Default)]
struct TransferState {
    /// `None` until the first transfer attempt scans the store (and again
    /// after [`Registry::reload`] invalidates it).
    repo: Option<Repository>,
    quality: BTreeMap<String, TransferQuality>,
}

/// Lazy, memoized name → [`ModelEntry`] resolution.
pub struct Registry {
    config: ServeConfig,
    /// The warm-start store, when `config.store_dir` is set.
    store: Option<ModelStore>,
    // BTreeMap so `/v1/models` and `/metrics` list entries in stable order.
    //
    // Concurrency: this map lock guards only slot lookup/insertion — an
    // O(log n) map operation. Entry *materialization* (store load or
    // generate+train, both potentially seconds) happens outside it, inside
    // the slot's per-entry `OnceLock` initializer, so first-touch requests
    // for different models build in parallel and only same-name racers
    // block on one training. Pinned by
    // `distinct_models_materialize_in_parallel` below.
    entries: Mutex<BTreeMap<String, EntrySlot>>,
    // Latest partition per canonical model name, for `/v1/entity` lookups.
    // Same-rank key 1 keeps lockcheck's (rank, key) order distinct from the
    // entries map (key 0); neither lock is ever held while acquiring the
    // other.
    partitions: Mutex<BTreeMap<String, Arc<PartitionEntry>>>,
    // Repository index + transfer quality records (same-rank key 2; never
    // held while acquiring the entries or partitions locks).
    transfer: Mutex<TransferState>,
    /// Store, transfer, block and cluster accounting.
    pub counters: RegistryCounters,
}

impl Registry {
    /// An empty registry serving the given configuration.
    pub fn new(config: ServeConfig) -> Self {
        let store = config.store_dir.as_ref().map(ModelStore::new);
        Registry {
            config,
            store,
            entries: Mutex::new(BTreeMap::new()),
            partitions: Mutex::new(BTreeMap::new()),
            transfer: Mutex::new(TransferState::default()),
            counters: RegistryCounters::default(),
        }
    }

    /// Count one failed best-effort save of `what` and log it; the request
    /// that triggered the save still succeeds.
    fn persist_failed(&self, what: &str, store: &ModelStore, e: &StoreError) {
        self.counters.store_save_errors.inc();
        eprintln!(
            "certa-serve: could not persist {what} to {}: {e}",
            store.dir().display()
        );
    }

    /// Account one `/v1/cluster` run, hold its partition for `/v1/entity`
    /// lookups, and (with a `--store-dir`) persist it so the *next* process
    /// warm-starts entity lookups without re-clustering. Persistence is
    /// best-effort, like model persistence: a read-only store directory
    /// never fails the request.
    pub fn record_cluster(
        &self,
        entry: &ModelEntry,
        partition: Arc<Partition>,
        clusterer: &str,
        threshold: f64,
    ) {
        self.counters.cluster_runs.inc();
        self.counters.cluster_entities.add(partition.len() as u64);
        if let Some(store) = &self.store {
            let (scale, seed) = (self.config.scale, self.config.seed);
            if let Err(e) = store.save_partition(
                entry.dataset_id,
                entry.kind,
                scale,
                seed,
                &partition,
                clusterer,
                threshold,
            ) {
                self.persist_failed(&format!("partition for {}", entry.name), store, &e);
            }
        }
        let stored = Arc::new(PartitionEntry {
            partition,
            clusterer: clusterer.to_string(),
            threshold,
        });
        let owner = self as *const Registry as usize;
        let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 1);
        self.partitions.lock().insert(entry.name.clone(), stored);
    }

    /// The partition serving `/v1/entity` for a model: the latest
    /// `/v1/cluster` result, or — on a fresh process with a `--store-dir` —
    /// a verified persisted partition for this `(dataset, model, scale,
    /// seed)` world. `None` until either exists.
    pub fn partition_for(&self, entry: &ModelEntry) -> Option<Arc<PartitionEntry>> {
        self.counters.entity_lookups.inc();
        let owner = self as *const Registry as usize;
        {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 1);
            if let Some(found) = self.partitions.lock().get(&entry.name) {
                return Some(Arc::clone(found));
            }
        }
        // Warm-start path: decode outside the map lock (it is real work),
        // then publish. A concurrent `/v1/cluster` run wins any race —
        // fresher than the persisted artifact by construction.
        let store = self.store.as_ref()?;
        let (scale, seed) = (self.config.scale, self.config.seed);
        let t0 = Instant::now();
        let loaded = store
            .load_partition(entry.dataset_id, entry.kind, scale, seed)
            .ok()?;
        self.counters
            .store_load_micros
            .add(t0.elapsed().as_micros() as u64);
        let stored = Arc::new(PartitionEntry {
            partition: Arc::new(loaded.partition),
            clusterer: loaded.clusterer,
            threshold: loaded.threshold,
        });
        let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 1);
        Some(Arc::clone(
            self.partitions
                .lock()
                .entry(entry.name.clone())
                .or_insert(stored),
        ))
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Parse and canonicalize a `"<dataset>/<model>"` name.
    pub fn canonical_name(name: &str) -> Result<(DatasetId, ModelKind), HttpError> {
        let (ds, model) = name.split_once('/').ok_or_else(|| {
            HttpError::bad_request(
                "bad_model_name",
                format!("`{name}` is not of the form `<dataset>/<model>` (e.g. `FZ/DeepMatcher`)"),
            )
        })?;
        let dataset_id = DatasetId::from_code(ds).map_err(|e| HttpError {
            status: 404,
            code: "unknown_dataset",
            message: e,
            keep_alive: true,
        })?;
        let kind = ModelKind::from_name(model).map_err(|e| HttpError {
            status: 404,
            code: "unknown_model",
            message: e,
            keep_alive: true,
        })?;
        Ok((dataset_id, kind))
    }

    /// Resolve a name: warm-start from the store when configured, else
    /// generate + train (persisting the result for the next process).
    pub fn resolve(&self, name: &str) -> Result<Arc<ModelEntry>, HttpError> {
        self.resolve_with(name, |dataset_id, kind, canonical| {
            self.materialize(dataset_id, kind, canonical)
        })
    }

    /// Build one full entry (load-or-train, score cache, explainer) for a
    /// canonical name. Real work — always runs outside every registry lock.
    fn materialize(
        &self,
        dataset_id: DatasetId,
        kind: ModelKind,
        canonical: &str,
    ) -> Arc<ModelEntry> {
        let (dataset, model) = self.load_or_train(dataset_id, kind);
        let model = Arc::new(model);
        let cache = CachingMatcher::new(Arc::clone(&model) as BoxedMatcher);
        Arc::new(ModelEntry {
            name: canonical.to_string(),
            dataset_id,
            kind,
            dataset,
            model,
            cache,
            certa: Certa::new(self.config.certa_config()),
        })
    }

    /// Atomic registry hot-swap behind `POST /v1/reload`: re-resolve every
    /// materialized model from the store and swap the fresh entries in
    /// under one map-lock acquisition. Materialization (store load or
    /// train) happens entirely outside the locks — the same discipline as
    /// first-touch resolution — so in-flight requests keep scoring against
    /// the old entries (their `Arc`s stay alive) and never observe a
    /// half-swapped map. The repository index is invalidated first so a
    /// store directory that changed since startup is rescanned. Returns
    /// the reloaded canonical names, in order.
    pub fn reload(&self) -> Vec<String> {
        let owner = self as *const Registry as usize;
        let names: Vec<String> = {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 0);
            self.entries.lock().keys().cloned().collect()
        };
        {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
            self.transfer.lock().repo = None;
        }
        let mut swapped: Vec<(String, EntrySlot)> = Vec::with_capacity(names.len());
        for name in &names {
            // Map keys are canonical by construction; skip defensively.
            let Ok((dataset_id, kind)) = Self::canonical_name(name) else {
                continue;
            };
            lockcheck::assert_none_held(owner, "reload materialization");
            let entry = self.materialize(dataset_id, kind, name);
            let slot: EntrySlot = Arc::new(OnceLock::new());
            let _ = slot.set(entry);
            swapped.push((name.clone(), slot));
        }
        {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 0);
            let mut map = self.entries.lock();
            for (name, slot) in swapped {
                map.insert(name, slot);
            }
        }
        names
    }

    /// Memoized resolution with an injected builder. The builder runs
    /// outside the registry map lock (inside the per-entry `OnceLock`
    /// initializer), so materializing one name never blocks resolution of
    /// other names — the concurrency test drives this with barrier
    /// builders to prove the property without timing assumptions.
    fn resolve_with(
        &self,
        name: &str,
        build: impl FnOnce(DatasetId, ModelKind, &str) -> Arc<ModelEntry>,
    ) -> Result<Arc<ModelEntry>, HttpError> {
        let (dataset_id, kind) = Self::canonical_name(name)?;
        let canonical = format!("{}/{}", dataset_id.code(), kind.paper_name());
        let owner = self as *const Registry as usize;
        let slot: EntrySlot = {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 0);
            let mut map = self.entries.lock();
            Arc::clone(map.entry(canonical.clone()).or_default())
        };
        // Materialization (store load or generate+train, potentially
        // seconds) must never run under the map lock — that would
        // serialize first-touch requests for *different* names.
        lockcheck::assert_none_held(owner, "entry materialization");
        let entry = slot.get_or_init(|| build(dataset_id, kind, &canonical));
        Ok(Arc::clone(entry))
    }

    /// The load-or-train-then-persist step behind first-touch resolution.
    ///
    /// A verified store pair (dataset + model artifacts for this exact
    /// `(scale, seed)` world) short-circuits generation and training; any
    /// failure — absent files, checksum mismatch, stale format version —
    /// falls back to the train path, which then persists both artifacts
    /// best-effort (a read-only store directory degrades to PR-3
    /// behaviour, it never fails the request).
    fn load_or_train(&self, dataset_id: DatasetId, kind: ModelKind) -> (Dataset, ErModel) {
        let (scale, seed) = (self.config.scale, self.config.seed);
        // Fast path: both artifacts load and verify.
        let stored_dataset = self.store.as_ref().and_then(|store| {
            let t0 = Instant::now();
            let dataset = store.load_dataset(dataset_id, scale, seed).ok()?;
            let model = store.load_model(dataset_id, kind, scale, seed);
            // Whatever actually loaded counts toward the load-latency
            // metric — on the dataset-only path the decode work was real
            // even though the entry still has to train.
            self.counters
                .store_load_micros
                .add(t0.elapsed().as_micros() as u64);
            if let Ok(model) = model {
                self.counters.store_hits.inc();
                return Some(Ok((dataset, model)));
            }
            // Dataset loaded but no valid model: train on the loaded
            // dataset (decoded datasets featurize bit-identically to
            // generated ones, so the trained weights are identical too).
            Some(Err(dataset))
        });
        let (dataset, dataset_was_stored) = match stored_dataset {
            Some(Ok(pair)) => return pair,
            Some(Err(dataset)) => {
                self.counters.store_misses.inc();
                (dataset, true)
            }
            None => {
                if self.store.is_some() {
                    self.counters.store_misses.inc();
                }
                (generate(dataset_id, scale, seed), false)
            }
        };
        // Store miss: with `--transfer nearest`, try warm-starting from the
        // nearest stored model before falling back to a cold train.
        if let Some(model) = self.try_transfer(dataset_id, kind, &dataset, dataset_was_stored) {
            return (dataset, model);
        }
        let (model, _report) = train_model(kind, &dataset, &TrainConfig::for_kind(kind));
        if let Some(store) = &self.store {
            let saved = if dataset_was_stored {
                store.save_model_signed(dataset_id, kind, scale, seed, &model, &dataset)
            } else {
                store
                    .save_dataset(dataset_id, scale, seed, &dataset)
                    .and_then(|_| {
                        store.save_model_signed(dataset_id, kind, scale, seed, &model, &dataset)
                    })
            };
            if let Err(e) = saved {
                self.persist_failed(&format!("{dataset_id}/{}", kind.paper_name()), store, &e);
            } else if self.config.transfer == TransferMode::Nearest {
                // A cold save may postdate the repository scan; drop the
                // index so the next transfer attempt sees this artifact.
                let owner = self as *const Registry as usize;
                let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
                self.transfer.lock().repo = None;
            }
        }
        (dataset, model)
    }

    /// The `--transfer nearest` warm-start behind a store miss: rank stored
    /// models by dataset-signature similarity, and fine-tune from the
    /// nearest same-family donor above [`ServeConfig::transfer_floor`]
    /// instead of cold-initializing. The tuned model is persisted signed
    /// (so the next process gets a plain store hit) and its donor
    /// similarity and tuned test-F1 land in `/metrics`. The quality cost
    /// against a cold train is gated offline by `bench_repo`, so serving
    /// never pays for a second, cold training run.
    ///
    /// Returns `None` (counting a transfer miss) when the mode is off, no
    /// store is configured, or no qualifying donor fine-tunes successfully.
    fn try_transfer(
        &self,
        dataset_id: DatasetId,
        kind: ModelKind,
        dataset: &Dataset,
        dataset_was_stored: bool,
    ) -> Option<ErModel> {
        if self.config.transfer != TransferMode::Nearest {
            return None;
        }
        let store = self.store.as_ref()?;
        let (scale, seed) = (self.config.scale, self.config.seed);
        let canonical = format!("{}/{}", dataset_id.code(), kind.paper_name());
        let query = build_signature(dataset);
        let owner = self as *const Registry as usize;
        // Scan outside the transfer lock (it reads every model artifact's
        // signature section), then install the index if still absent.
        let held = {
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
            self.transfer.lock().repo.clone()
        };
        let snapshot = match held {
            Some(repo) => repo,
            None => {
                let scanned = Repository::scan(store).unwrap_or_default();
                let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
                self.transfer.lock().repo.get_or_insert(scanned).clone()
            }
        };
        let candidates: Vec<(f64, PathBuf)> = snapshot
            .nearest(&query, snapshot.len())
            .into_iter()
            .filter(|(sim, _)| *sim >= self.config.transfer_floor)
            .map(|(sim, e)| (sim, e.path.clone()))
            .collect();
        for (similarity, path) in candidates {
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            // Cheap family gate before decoding any weights.
            if peek_model_kind(&bytes) != Ok(kind) {
                continue;
            }
            let Ok(base) = decode_er_model(&bytes) else {
                continue;
            };
            let cfg = TrainConfig::for_kind(kind);
            let Some((tuned, report)) = fine_tune_model(kind, dataset, &base, &cfg) else {
                continue;
            };
            let quality = TransferQuality {
                similarity,
                tuned_f1: report.test_f1,
            };
            self.counters.transfer_hits.inc();
            if !dataset_was_stored {
                if let Err(e) = store.save_dataset(dataset_id, scale, seed, dataset) {
                    self.persist_failed(&format!("{dataset_id} dataset"), store, &e);
                }
            }
            let saved = store.save_model_signed(dataset_id, kind, scale, seed, &tuned, dataset);
            {
                let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
                let mut t = self.transfer.lock();
                match &saved {
                    Ok(at) => {
                        if let Some(repo) = &mut t.repo {
                            repo.add(
                                at.clone(),
                                ModelSignature {
                                    dataset: dataset_id.code().to_string(),
                                    scale: scale.to_string(),
                                    seed,
                                    signature: query.clone(),
                                },
                            );
                        }
                    }
                    Err(_) => t.repo = None,
                }
                t.quality.insert(canonical.clone(), quality);
            }
            if let Err(e) = saved {
                self.persist_failed(&format!("transferred {canonical}"), store, &e);
            }
            return Some(tuned);
        }
        self.counters.transfer_misses.inc();
        None
    }

    /// Snapshot of the resolved entries, in name order.
    pub fn loaded(&self) -> Vec<Arc<ModelEntry>> {
        self.entries
            .lock()
            .values()
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }

    /// Append the registry's families to the exposition: per-model score
    /// cache and featurizer memo, then store, transfer, block and cluster
    /// accounting. Renders nothing until a model has been resolved; from
    /// then on the store counters render even without a `--store-dir`
    /// (zeros), so dashboards can tell "no store" from "store never hit".
    pub fn render(&self, out: &mut Exposition) {
        let loaded = self.loaded();
        if loaded.is_empty() {
            return;
        }
        let cache: Vec<(&str, CacheStats, usize)> = loaded
            .iter()
            .map(|e| (e.name.as_str(), e.cache.stats(), e.cache.len()))
            .collect();
        out.family(
            Kind::Counter,
            "certa_serve_cache_hits_total",
            "model",
            cache.iter().map(|(name, s, _)| (name, s.hits)),
        );
        out.family(
            Kind::Counter,
            "certa_serve_cache_misses_total",
            "model",
            cache.iter().map(|(name, s, _)| (name, s.misses)),
        );
        out.family(
            Kind::Gauge,
            "certa_serve_cache_entries",
            "model",
            cache.iter().map(|(name, _, len)| (name, *len)),
        );
        // Featurizer-memo effectiveness (per-value featurization artifacts),
        // next to the score-cache counters it composes with.
        let memo: Vec<(&str, CacheStats, usize)> = loaded
            .iter()
            .map(|e| (e.name.as_str(), e.model.memo_stats(), e.model.memo_len()))
            .collect();
        out.family(
            Kind::Counter,
            "certa_serve_featurizer_memo_hits_total",
            "model",
            memo.iter().map(|(name, s, _)| (name, s.hits)),
        );
        out.family(
            Kind::Counter,
            "certa_serve_featurizer_memo_misses_total",
            "model",
            memo.iter().map(|(name, s, _)| (name, s.misses)),
        );
        out.family(
            Kind::Gauge,
            "certa_serve_featurizer_memo_entries",
            "model",
            memo.iter().map(|(name, _, len)| (name, *len)),
        );

        let c = &self.counters;
        for (name, counter) in [
            ("certa_serve_store_hits_total", &c.store_hits),
            ("certa_serve_store_misses_total", &c.store_misses),
        ] {
            out.scalar(Kind::Counter, name, counter);
        }
        out.scalar(
            Kind::Counter,
            "certa_serve_store_load_seconds_total",
            c.store_load_micros.get() as f64 / 1e6,
        );
        for (name, counter) in [
            ("certa_serve_store_save_errors_total", &c.store_save_errors),
            ("certa_serve_transfer_hits_total", &c.transfer_hits),
            ("certa_serve_transfer_misses_total", &c.transfer_misses),
        ] {
            out.scalar(Kind::Counter, name, counter);
        }
        // Per transferred model: donor similarity and the tuned test-F1.
        let quality: Vec<(String, TransferQuality)> = {
            let owner = self as *const Registry as usize;
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 2);
            self.transfer
                .lock()
                .quality
                .iter()
                .map(|(name, q)| (name.clone(), *q))
                .collect()
        };
        out.family(
            Kind::Gauge,
            "certa_serve_transfer_similarity",
            "model",
            quality.iter().map(|(name, q)| (name, q.similarity)),
        );
        out.family(
            Kind::Gauge,
            "certa_serve_transfer_test_f1",
            "model",
            quality.iter().map(|(name, q)| (name, q.tuned_f1)),
        );
        for (name, counter) in [
            ("certa_serve_block_runs_total", &c.block_runs),
            ("certa_serve_block_candidates_total", &c.block_candidates),
            ("certa_serve_cluster_runs_total", &c.cluster_runs),
            ("certa_serve_cluster_entities_total", &c.cluster_entities),
            (
                "certa_serve_cluster_entity_lookups_total",
                &c.entity_lookups,
            ),
        ] {
            out.scalar(Kind::Counter, name, counter);
        }
        // The partition currently held for `/v1/entity` lookups, per model.
        let held: Vec<(String, usize)> = {
            let owner = self as *const Registry as usize;
            let _held = lockcheck::acquire(owner, lockcheck::rank::SHARD, 1);
            self.partitions
                .lock()
                .iter()
                .map(|(name, p)| (name.clone(), p.partition.len()))
                .collect()
        };
        out.family(
            Kind::Gauge,
            "certa_serve_cluster_partition_entities",
            "model",
            held,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::RecordDto;
    use certa_core::{Matcher, RecordId};
    use std::sync::atomic::Ordering;

    fn exposition(registry: &Registry) -> String {
        let mut out = Exposition::default();
        registry.render(&mut out);
        out.into_text()
    }

    #[test]
    fn canonical_names_parse_and_reject() {
        let (ds, kind) = Registry::canonical_name("fz/deepmatcher").unwrap();
        assert_eq!((ds, kind), (DatasetId::FZ, ModelKind::DeepMatcher));
        let (ds, kind) = Registry::canonical_name("DDA/ditto-sim").unwrap();
        assert_eq!((ds, kind), (DatasetId::DDA, ModelKind::Ditto));
        assert_eq!(
            Registry::canonical_name("no-slash").unwrap_err().status,
            400
        );
        assert_eq!(
            Registry::canonical_name("XX/Ditto").unwrap_err().status,
            404
        );
        assert_eq!(Registry::canonical_name("FZ/gpt").unwrap_err().status, 404);
    }

    #[test]
    fn resolve_trains_once_and_canonicalizes_aliases() {
        let registry = Registry::new(ServeConfig::default());
        assert!(registry.loaded().is_empty());
        assert_eq!(exposition(&registry), "", "nothing renders before a model");
        let a = registry.resolve("FZ/DeepMatcher").unwrap();
        // Case/alias variants land on the same memoized entry.
        let b = registry.resolve("fz/deepmatcher-sim").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "aliases must share one entry");
        assert_eq!(a.name, "FZ/DeepMatcher");
        assert_eq!(registry.loaded().len(), 1);

        // The entry scores and its cache counts traffic.
        let u = a.dataset.left().records()[0].clone();
        let v = a.dataset.right().records()[0].clone();
        let s1 = a.matcher().score(&u, &v);
        let s2 = a.matcher().score(&u, &v);
        assert_eq!(s1, s2);
        let stats = a.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let lines = exposition(&registry);
        assert!(lines.contains("cache_hits_total{model=\"FZ/DeepMatcher\"} 1"));
        // The featurizer memo saw exactly one uncached scoring pass.
        let memo = a.model.memo_stats();
        assert!(memo.misses > 0, "memo populated by the cold score");
        assert!(lines.contains("featurizer_memo_misses_total{model=\"FZ/DeepMatcher\"}"));
        assert!(lines.contains("featurizer_memo_hits_total{model=\"FZ/DeepMatcher\"}"));
        assert!(lines.contains("featurizer_memo_entries{model=\"FZ/DeepMatcher\"}"));
    }

    /// Unique-per-test temp dir (std-only; no tempfile crate in-tree).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU32;
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "certa-serve-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_start_loads_instead_of_training() {
        let dir = temp_dir("warmstart");
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };

        // Cold process: trains, persists, counts a miss.
        let cold = Registry::new(config.clone());
        let entry = cold.resolve("FZ/DeepMatcher").unwrap();
        let c = &cold.counters;
        assert_eq!((c.store_hits.get(), c.store_misses.get()), (0, 1));
        assert!(
            ModelStore::new(&dir).list().unwrap().len() >= 2,
            "dataset + model artifacts persisted"
        );
        let u = entry.dataset.left().records()[0].clone();
        let v = entry.dataset.right().records()[0].clone();
        let cold_score = entry.matcher().score(&u, &v);

        // "Restarted" process: same config, fresh registry — must load.
        let warm = Registry::new(config);
        let entry2 = warm.resolve("FZ/DeepMatcher").unwrap();
        let c = &warm.counters;
        assert_eq!(
            (c.store_hits.get(), c.store_misses.get()),
            (1, 0),
            "no retraining"
        );
        let warm_score = entry2.matcher().score(&u, &v);
        assert_eq!(warm_score.to_bits(), cold_score.to_bits());
        let lines = exposition(&warm);
        assert!(lines.contains("certa_serve_store_hits_total 1"), "{lines}");
        assert!(
            lines.contains("certa_serve_store_load_seconds_total"),
            "{lines}"
        );

        // A missing model for a loaded dataset trains without re-saving
        // the dataset, and subsequent restarts hit both artifacts.
        let entry3 = warm.resolve("FZ/Ditto").unwrap();
        assert_eq!(entry3.kind, ModelKind::Ditto);
        assert_eq!(warm.counters.store_misses.get(), 1);
        let third = Registry::new(warm.config().clone());
        third.resolve("FZ/Ditto").unwrap();
        assert_eq!(third.counters.store_hits.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitions_warm_start_from_the_store() {
        use certa_cluster::ClusterNode;
        let dir = temp_dir("partition");
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let cold = Registry::new(config.clone());
        let entry = cold.resolve("FZ/Ditto").unwrap();
        assert!(
            cold.partition_for(&entry).is_none(),
            "nothing clustered yet"
        );
        let partition = Arc::new(Partition::new(vec![
            vec![ClusterNode::left(0), ClusterNode::right(0)],
            vec![ClusterNode::left(1)],
        ]));
        cold.record_cluster(&entry, Arc::clone(&partition), "connected-components", 0.5);
        let c = &cold.counters;
        assert_eq!(
            [&c.cluster_runs, &c.cluster_entities, &c.entity_lookups].map(Counter::get),
            [1, 2, 1]
        );
        assert!(
            cold.partition_for(&entry).is_some(),
            "held for this process"
        );

        // "Restarted" process: the persisted partition serves lookups
        // without a fresh `/v1/cluster` run.
        let warm = Registry::new(config);
        let entry = warm.resolve("FZ/Ditto").unwrap();
        let held = warm.partition_for(&entry).expect("persisted partition");
        assert_eq!(*held.partition, *partition);
        assert_eq!(held.clusterer, "connected-components");
        assert_eq!(held.threshold, 0.5);
        let lines = exposition(&warm);
        assert!(
            lines.contains("certa_serve_cluster_partition_entities{model=\"FZ/Ditto\"} 2"),
            "{lines}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_store_degrades_to_training() {
        // A store path that cannot be created (a *file* occupies it).
        let dir = temp_dir("unwritable");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let registry = Registry::new(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let entry = registry.resolve("FZ/DeepMatcher").unwrap();
        let u = entry.dataset.left().records()[0].clone();
        let v = entry.dataset.right().records()[0].clone();
        assert!((0.0..=1.0).contains(&entry.matcher().score(&u, &v)));
        assert_eq!(registry.counters.store_misses.get(), 1);
        // The failed best-effort persist is counted, not just logged: the
        // dataset save fails first and short-circuits the model save.
        assert_eq!(registry.counters.store_save_errors.get(), 1);
        let lines = exposition(&registry);
        assert!(
            lines.contains("certa_serve_store_save_errors_total 1"),
            "{lines}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn transfer_warm_starts_from_a_sibling_seed() {
        let dir = temp_dir("transfer");
        // Another process stored a *signed* FZ model for a sibling seed.
        let donor_seed = ServeConfig::default().seed + 1;
        let store = ModelStore::new(&dir);
        let d = generate(DatasetId::FZ, Scale::Smoke, donor_seed);
        let kind = ModelKind::DeepMatcher;
        let (donor, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        store
            .save_model_signed(DatasetId::FZ, kind, Scale::Smoke, donor_seed, &donor, &d)
            .unwrap();

        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            transfer: TransferMode::Nearest,
            ..ServeConfig::default()
        };
        let registry = Registry::new(config.clone());
        let entry = registry.resolve("FZ/DeepMatcher").unwrap();
        let c = &registry.counters;
        assert_eq!(
            (c.transfer_hits.get(), c.transfer_misses.get()),
            (1, 0),
            "sibling donor fine-tuned"
        );
        assert_eq!(c.store_misses.get(), 1, "still a store miss");
        assert_eq!(c.store_save_errors.get(), 0);
        let lines = exposition(&registry);
        assert!(
            lines.contains("certa_serve_transfer_hits_total 1"),
            "{lines}"
        );
        assert!(
            lines.contains("certa_serve_transfer_misses_total 0"),
            "{lines}"
        );
        assert!(
            lines.contains("certa_serve_transfer_similarity{model=\"FZ/DeepMatcher\"}"),
            "{lines}"
        );
        assert!(
            lines.contains("certa_serve_transfer_test_f1{model=\"FZ/DeepMatcher\"}"),
            "{lines}"
        );
        assert!(!lines.contains("f1_delta"), "{lines}");
        let u = entry.dataset.left().records()[0].clone();
        let v = entry.dataset.right().records()[0].clone();
        assert!((0.0..=1.0).contains(&entry.matcher().score(&u, &v)));

        // The tuned model was persisted signed, so a restarted process gets
        // a plain store hit and never reaches the transfer path.
        let warm = Registry::new(config.clone());
        warm.resolve("FZ/DeepMatcher").unwrap();
        let c = &warm.counters;
        assert_eq!(c.store_hits.get(), 1);
        assert_eq!((c.transfer_hits.get(), c.transfer_misses.get()), (0, 0));

        // An unrelated schema (AB ∩ FZ attribute names = ∅, similarity 0)
        // finds no donor above the floor: a transfer miss, cold train.
        let ab = Registry::new(config);
        ab.resolve("AB/DeepMatcher").unwrap();
        let c = &ab.counters;
        assert_eq!(
            (c.transfer_hits.get(), c.transfer_misses.get()),
            (0, 1),
            "no donor above the floor"
        );
        let lines = exposition(&ab);
        assert!(
            lines.contains("certa_serve_transfer_misses_total 1"),
            "{lines}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The registry-lock fix, proven without timing assumptions: two
    /// first-touch resolutions of *different* names run their builders
    /// concurrently — each builder blocks until it has seen the other
    /// builder start, which can only converge if neither holds a lock the
    /// other needs. (Before the fix, training inside the registry map lock
    /// would deadlock this test instead of merely slowing it down; the
    /// spin-wait below turns that deadlock into a loud failure.)
    #[test]
    fn distinct_models_materialize_in_parallel() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;

        let registry = Arc::new(Registry::new(ServeConfig::default()));
        let inside = Arc::new(AtomicUsize::new(0));
        let names = ["FZ/DeepMatcher", "AB/Ditto"];
        std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|name| {
                    let registry = Arc::clone(&registry);
                    let inside = Arc::clone(&inside);
                    scope.spawn(move || {
                        registry
                            .resolve_with(name, |dataset_id, kind, canonical| {
                                inside.fetch_add(1, Ordering::SeqCst);
                                // Rendezvous: wait (bounded) for the other
                                // builder to be inside its critical section.
                                let t0 = Instant::now();
                                while inside.load(Ordering::SeqCst) < 2 {
                                    assert!(
                                        t0.elapsed() < Duration::from_secs(10),
                                        "builders serialized: second first-touch \
                                         never started while the first was building"
                                    );
                                    std::thread::yield_now();
                                }
                                // Both builders are concurrently inside —
                                // the property holds; build a real entry.
                                let dataset =
                                    generate(dataset_id, Scale::Smoke, registry.config().seed);
                                let (model, _) =
                                    train_model(kind, &dataset, &TrainConfig::for_kind(kind));
                                let model = Arc::new(model);
                                let cache = CachingMatcher::new(Arc::clone(&model) as BoxedMatcher);
                                Arc::new(ModelEntry {
                                    name: canonical.to_string(),
                                    dataset_id,
                                    kind,
                                    dataset,
                                    model,
                                    cache,
                                    certa: Certa::new(registry.config().certa_config()),
                                })
                            })
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                let entry = h.join().expect("resolution thread panicked");
                assert!(names.contains(&entry.name.as_str()));
            }
        });
        assert_eq!(inside.load(Ordering::SeqCst), 2);
        assert_eq!(registry.loaded().len(), 2);
    }

    #[test]
    fn record_resolution_checks_ids_and_arity() {
        let registry = Registry::new(ServeConfig::default());
        let entry = registry.resolve("FZ/Ditto").unwrap();
        let by_id = RecordDto::ById(RecordId(0));
        let r = entry
            .resolve_record(&by_id, Side::Left, "pair.left_id")
            .unwrap();
        assert_eq!(r.id(), RecordId(0));
        let missing = RecordDto::ById(RecordId(9_999_999));
        let err = entry
            .resolve_record(&missing, Side::Right, "pair.right_id")
            .unwrap_err();
        assert_eq!((err.status, err.code), (404, "unknown_record"));
        let bad_arity = RecordDto::Inline(Record::new(RecordId(0), vec!["only-one".into()]));
        let err = entry
            .resolve_record(&bad_arity, Side::Left, "pair.left")
            .unwrap_err();
        assert_eq!((err.status, err.code), (400, "arity_mismatch"));
        let arity = entry.dataset.left().schema().arity();
        let ok = RecordDto::Inline(Record::new(RecordId(5), vec![String::new(); arity]));
        assert!(entry.resolve_record(&ok, Side::Left, "pair.left").is_ok());
    }
}
