//! The on-disk store: a flat directory of `.cst` artifacts addressed by
//! `(dataset, model, scale, seed)`.
//!
//! ```text
//! <store-dir>/
//!   AB-smoke-7.dataset.cst                 one per generated dataset
//!   AB-deepmatcher-sim-smoke-7.model.cst   one per trained matcher
//! ```
//!
//! Writes go through a temp file + rename, so a crash mid-save leaves no
//! half-written artifact behind (a stale `.tmp` at worst, which [`gc`]
//! sweeps). Loads fully verify the container (magic, version, checksums)
//! *and* the artifact semantics before anything reaches the caller.
//!
//! [`gc`]: ModelStore::gc

use crate::container::{ArtifactKind, Container};
use crate::dataset::{decode_dataset, encode_dataset};
use crate::error::{Result, StoreError};
use crate::model::{
    decode_er_model, decode_rule_matcher, encode_er_model_signed, encode_er_model_with_memo,
    peek_model_kind,
};
use crate::partition::{decode_partition, encode_partition, StoredPartition};
use crate::signature::{build_signature, ModelSignature};
use crate::snapshot::decode_score_cache;
use certa_cluster::Partition;
use certa_core::Dataset;
use certa_datagen::{DatasetId, Scale};
use certa_models::{ErModel, ModelKind};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How old an orphaned temp file must be before [`ModelStore::gc`] sweeps
/// it. A temp file younger than this may belong to an in-flight
/// `write_atomic` in *another* process (same-process temps are recognized
/// by pid and never swept); fifteen minutes is far beyond any save.
pub const GC_TMP_STALENESS: Duration = Duration::from_secs(15 * 60);

/// File extension of every store artifact.
pub const EXTENSION: &str = "cst";

/// A directory of persisted artifacts.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

impl ModelStore {
    /// A store rooted at `dir`. The directory is created on first save, not
    /// here — constructing a store is free and never touches the disk.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a dataset artifact.
    pub fn dataset_path(&self, id: DatasetId, scale: Scale, seed: u64) -> PathBuf {
        self.dir
            .join(format!("{}-{scale}-{seed}.dataset.{EXTENSION}", id.code()))
    }

    /// Path of a model artifact.
    pub fn model_path(&self, id: DatasetId, kind: ModelKind, scale: Scale, seed: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{scale}-{seed}.model.{EXTENSION}",
            id.code(),
            kind.model_name()
        ))
    }

    /// Path of a partition artifact (keyed like the model that scored it).
    pub fn partition_path(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
    ) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{scale}-{seed}.partition.{EXTENSION}",
            id.code(),
            kind.model_name()
        ))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        // Unique temp name per call (pid + process-wide counter): concurrent
        // saves of the same artifact — two first-touch requests, or two
        // server processes sharing one store — each write their own temp
        // file, and the final rename stays last-writer-wins over *complete*
        // bytes instead of interleaving into one shared temp file.
        static NEXT_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
    }

    /// Persist a generated dataset. Returns the written path.
    pub fn save_dataset(
        &self,
        id: DatasetId,
        scale: Scale,
        seed: u64,
        dataset: &Dataset,
    ) -> Result<PathBuf> {
        let path = self.dataset_path(id, scale, seed);
        self.write_atomic(&path, &encode_dataset(dataset))?;
        Ok(path)
    }

    /// Load + fully verify a dataset artifact.
    pub fn load_dataset(&self, id: DatasetId, scale: Scale, seed: u64) -> Result<Dataset> {
        let path = self.dataset_path(id, scale, seed);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        decode_dataset(&bytes)
    }

    /// Persist a trained model (including its warm featurization memo, when
    /// populated). Returns the written path.
    pub fn save_model(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
        model: &ErModel,
    ) -> Result<PathBuf> {
        let path = self.model_path(id, kind, scale, seed);
        self.write_atomic(&path, &encode_er_model_with_memo(model))?;
        Ok(path)
    }

    /// [`ModelStore::save_model`] plus an embedded SIGNATURE section built
    /// from the training dataset — the form [`crate::Repository`] indexes
    /// and `certa-store search` ranks. Returns the written path.
    pub fn save_model_signed(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
        model: &ErModel,
        dataset: &Dataset,
    ) -> Result<PathBuf> {
        let ms = ModelSignature {
            dataset: id.code().to_string(),
            scale: scale.to_string(),
            seed,
            signature: build_signature(dataset),
        };
        let path = self.model_path(id, kind, scale, seed);
        self.write_atomic(&path, &encode_er_model_signed(model, &ms))?;
        Ok(path)
    }

    /// Load + fully verify a model artifact, additionally checking that the
    /// stored family matches the requested one (a renamed file cannot serve
    /// the wrong matcher).
    pub fn load_model(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
    ) -> Result<ErModel> {
        let path = self.model_path(id, kind, scale, seed);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        // Validate the stored family from the container header *before*
        // the full decode: the guard holds for any file at this path, not
        // just while the filename layout keeps kinds on distinct paths.
        let stored = peek_model_kind(&bytes)?;
        if stored != kind {
            return Err(StoreError::Malformed(format!(
                "{} holds a {stored:?} model, expected {kind:?}",
                path.display()
            )));
        }
        decode_er_model(&bytes)
    }

    /// Persist a resolved entity partition next to the model that produced
    /// it. Returns the written path.
    #[allow(clippy::too_many_arguments)]
    pub fn save_partition(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
        partition: &Partition,
        clusterer: &str,
        threshold: f64,
    ) -> Result<PathBuf> {
        let path = self.partition_path(id, kind, scale, seed);
        self.write_atomic(&path, &encode_partition(partition, clusterer, threshold))?;
        Ok(path)
    }

    /// Load + fully verify a partition artifact.
    pub fn load_partition(
        &self,
        id: DatasetId,
        kind: ModelKind,
        scale: Scale,
        seed: u64,
    ) -> Result<StoredPartition> {
        let path = self.partition_path(id, kind, scale, seed);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        decode_partition(&bytes)
    }

    /// All `.cst` artifacts under the store root, sorted by name. An absent
    /// directory lists as empty.
    pub fn list(&self) -> Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&self.dir, e)),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| io_err(&self.dir, e))?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Remove every artifact that fails verification (corrupt bytes, stale
    /// format versions) plus orphaned `.tmp` files from interrupted saves.
    /// Returns the removed paths; with `dry_run` nothing is deleted.
    ///
    /// Temp files are only swept when *orphaned*: a temp belonging to this
    /// process (pid parsed from the `.tmp.<pid>.<n>` name) is never
    /// touched, and temps younger than [`GC_TMP_STALENESS`] are left for
    /// whichever process is mid-save on them — without both guards, a gc
    /// racing a concurrent `write_atomic` deletes the temp file right
    /// before its rename and fails that save with a spurious `Io` error.
    pub fn gc(&self, dry_run: bool) -> Result<Vec<PathBuf>> {
        self.gc_with_staleness(dry_run, GC_TMP_STALENESS)
    }

    /// [`ModelStore::gc`] with an explicit temp-file staleness window
    /// (tests pass [`Duration::ZERO`] to treat every foreign temp as
    /// orphaned; the current process's temps are skipped regardless).
    pub fn gc_with_staleness(&self, dry_run: bool, staleness: Duration) -> Result<Vec<PathBuf>> {
        let mut doomed = Vec::new();
        for path in self.list()? {
            if verify_file(&path).is_err() {
                doomed.push(path);
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                // Both temp shapes: bare `.tmp` and the per-call unique
                // `.tmp.<pid>.<n>` that `write_atomic` creates.
                if !(name.ends_with(".tmp") || name.contains(".tmp.")) {
                    continue;
                }
                // A live temp of this very process is about to be renamed.
                if tmp_pid(&name) == Some(std::process::id()) {
                    continue;
                }
                // A fresh foreign temp may belong to another process's
                // in-flight save; only sweep once it has gone stale. An
                // unreadable mtime is treated as fresh (conservative).
                if !staleness.is_zero() {
                    let age = entry
                        .metadata()
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| t.elapsed().ok());
                    match age {
                        Some(age) if age >= staleness => {}
                        _ => continue,
                    }
                }
                doomed.push(path);
            }
        }
        doomed.sort();
        if !dry_run {
            for path in &doomed {
                std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
            }
        }
        Ok(doomed)
    }

    /// Evict least-recently-modified artifacts until the store's total
    /// size fits within `max_bytes` (LRU by mtime, path ascending as the
    /// tiebreak). Returns the evicted paths, oldest first; with `dry_run`
    /// nothing is deleted. Temp files are gc's business, not eviction's.
    pub fn evict(&self, max_bytes: u64, dry_run: bool) -> Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        let mut total = 0u64;
        for path in self.list()? {
            let meta = std::fs::metadata(&path).map_err(|e| io_err(&path, e))?;
            let mtime = meta.modified().map_err(|e| io_err(&path, e))?;
            total += meta.len();
            files.push((mtime, path, meta.len()));
        }
        files.sort();
        let mut doomed = Vec::new();
        for (_, path, len) in files {
            if total <= max_bytes {
                break;
            }
            total -= len;
            doomed.push(path);
        }
        if !dry_run {
            for path in &doomed {
                std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
            }
        }
        Ok(doomed)
    }
}

/// Pid embedded in a `.tmp.<pid>.<n>` temp name, when present.
fn tmp_pid(name: &str) -> Option<u32> {
    let rest = name.split(".tmp.").nth(1)?;
    rest.split('.').next()?.parse().ok()
}

/// Fully verify one artifact file: container structure, checksums, and the
/// kind-specific semantic decode. Returns the artifact kind on success.
pub fn verify_file(path: &Path) -> Result<ArtifactKind> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    verify_bytes(&bytes)
}

/// [`verify_file`] over in-memory bytes.
pub fn verify_bytes(bytes: &[u8]) -> Result<ArtifactKind> {
    let kind = Container::parse(bytes)?.kind;
    match kind {
        ArtifactKind::Model => {
            decode_er_model(bytes)?;
        }
        ArtifactKind::Dataset => {
            decode_dataset(bytes)?;
        }
        ArtifactKind::Rule => {
            decode_rule_matcher(bytes)?;
        }
        ArtifactKind::ScoreCache => {
            decode_score_cache(bytes)?;
        }
        ArtifactKind::Partition => {
            decode_partition(bytes)?;
        }
    }
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{Matcher, Split};
    use certa_datagen::generate;
    use certa_models::{train_model, TrainConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Unique-per-test temp dir (std-only; no tempfile crate in-tree).
    fn temp_store(tag: &str) -> ModelStore {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "certa-store-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ModelStore::new(dir)
    }

    #[test]
    fn save_load_roundtrip_through_the_filesystem() {
        let store = temp_store("roundtrip");
        let d = generate(DatasetId::FZ, Scale::Smoke, 11);
        let kind = ModelKind::DeepMatcher;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));

        assert!(store.list().unwrap().is_empty(), "absent dir lists empty");
        store
            .save_dataset(DatasetId::FZ, Scale::Smoke, 11, &d)
            .unwrap();
        store
            .save_model(DatasetId::FZ, kind, Scale::Smoke, 11, &model)
            .unwrap();
        assert_eq!(store.list().unwrap().len(), 2);

        let d2 = store.load_dataset(DatasetId::FZ, Scale::Smoke, 11).unwrap();
        let m2 = store
            .load_model(DatasetId::FZ, kind, Scale::Smoke, 11)
            .unwrap();
        for lp in d.split(Split::Test) {
            let (u, v) = d.expect_pair(lp.pair);
            let (u2, v2) = d2.expect_pair(lp.pair);
            assert_eq!(m2.score(u2, v2).to_bits(), model.score(u, v).to_bits());
        }

        // Wrong-kind load is refused by the stored META kind, not by path
        // layout: copy the DeepMatcher artifact onto the Ditto path and the
        // kind guard must still fire (before any weight decode).
        let dm_path = store.model_path(DatasetId::FZ, kind, Scale::Smoke, 11);
        let ditto_path = store.model_path(DatasetId::FZ, ModelKind::Ditto, Scale::Smoke, 11);
        std::fs::copy(&dm_path, &ditto_path).unwrap();
        let err = store
            .load_model(DatasetId::FZ, ModelKind::Ditto, Scale::Smoke, 11)
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed(ref m) if m.contains("DeepMatcher")),
            "wrong-kind guard: {err}"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_sweeps_corrupt_files_and_stale_tmp() {
        let store = temp_store("gc");
        let d = generate(DatasetId::AB, Scale::Smoke, 2);
        let good = store
            .save_dataset(DatasetId::AB, Scale::Smoke, 2, &d)
            .unwrap();

        // A corrupt artifact: valid prefix, flipped payload byte.
        let mut bytes = std::fs::read(&good).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let bad = store.dir().join(format!("broken.dataset.{EXTENSION}"));
        std::fs::write(&bad, &bytes).unwrap();
        // Stale temp files from interrupted saves, both name shapes: a
        // bare `.tmp` (no pid) and a foreign process's `.tmp.<pid>.<n>`.
        let tmp = store.dir().join("half-written.tmp");
        std::fs::write(&tmp, b"partial").unwrap();
        let foreign_pid = std::process::id().wrapping_add(1);
        let tmp2 = store.dir().join(format!("x.dataset.tmp.{foreign_pid}.0"));
        std::fs::write(&tmp2, b"partial").unwrap();
        // A temp belonging to *this* process: a live save in flight.
        let live = store
            .dir()
            .join(format!("y.dataset.tmp.{}.9", std::process::id()));
        std::fs::write(&live, b"mine").unwrap();

        // The default window keeps every just-written temp (another
        // process may be mid-save on the foreign ones).
        let doomed = store.gc(true).unwrap();
        assert_eq!(doomed, vec![bad.clone()]);

        // Zero staleness treats foreign temps as orphaned; this process's
        // own temp is still protected by the pid guard.
        let doomed = store.gc_with_staleness(true, Duration::ZERO).unwrap();
        assert_eq!(doomed, vec![bad.clone(), tmp.clone(), tmp2.clone()]);
        assert!(
            bad.exists() && tmp.exists() && tmp2.exists(),
            "dry run removes nothing"
        );

        let doomed = store.gc_with_staleness(false, Duration::ZERO).unwrap();
        assert_eq!(doomed.len(), 3);
        assert!(!bad.exists() && !tmp.exists() && !tmp2.exists());
        assert!(live.exists(), "the current process's live temp survives");
        assert!(good.exists(), "valid artifacts survive gc");
        assert_eq!(verify_file(&good).unwrap(), ArtifactKind::Dataset);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn saves_racing_gc_still_land() {
        let store = temp_store("gc-race");
        let d = generate(DatasetId::AB, Scale::Smoke, 3);
        store
            .save_dataset(DatasetId::AB, Scale::Smoke, 0, &d)
            .unwrap();

        // A sweeper hammering gc while saves stream in: with the pid and
        // staleness guards, no save's temp file is ever deleted out from
        // under its rename.
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let sweeper = s.spawn(|| {
                let mut sweeps = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    store.gc(false).expect("gc itself must not fail");
                    sweeps += 1;
                }
                sweeps
            });
            for seed in 1..=12u64 {
                store
                    .save_dataset(DatasetId::AB, Scale::Smoke, seed, &d)
                    .expect("a save racing gc(false) must land");
            }
            stop.store(true, Ordering::Relaxed);
            assert!(sweeper.join().unwrap() > 0, "the sweeper actually ran");
        });
        assert_eq!(store.list().unwrap().len(), 13, "every racing save landed");
        for path in store.list().unwrap() {
            assert_eq!(verify_file(&path).unwrap(), ArtifactKind::Dataset);
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn evict_drops_oldest_artifacts_to_fit_the_budget() {
        let store = temp_store("evict");
        let d = generate(DatasetId::AB, Scale::Smoke, 2);
        let mut paths = Vec::new();
        for seed in 0..3u64 {
            paths.push(
                store
                    .save_dataset(DatasetId::AB, Scale::Smoke, seed, &d)
                    .unwrap(),
            );
            // Distinct mtimes so LRU order is unambiguous (coarse
            // filesystem timestamps would otherwise tie all three).
            std::thread::sleep(Duration::from_millis(20));
        }
        let sizes: u64 = paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        let one = std::fs::metadata(&paths[0]).unwrap().len();

        // Budget for everything: nothing evicted.
        assert!(store.evict(sizes, true).unwrap().is_empty());
        // Budget for two artifacts: the oldest goes, dry run first.
        let doomed = store.evict(sizes - 1, true).unwrap();
        assert_eq!(doomed, vec![paths[0].clone()]);
        assert!(paths[0].exists(), "dry run removes nothing");
        let doomed = store.evict(sizes - 1, false).unwrap();
        assert_eq!(doomed, vec![paths[0].clone()]);
        assert!(!paths[0].exists() && paths[1].exists() && paths[2].exists());
        // Budget below one artifact: everything must go.
        let doomed = store.evict(one.saturating_sub(1), false).unwrap();
        assert_eq!(doomed.len(), 2);
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
