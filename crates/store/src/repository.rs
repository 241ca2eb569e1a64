//! The searchable model repository: a similarity index over a store
//! directory's model artifacts.
//!
//! [`Repository::scan`] walks a [`ModelStore`] once, reading only each
//! model artifact's SIGNATURE section (container structure and checksums
//! are verified; no weights are decoded), and keeps the result as a
//! path-sorted in-memory index. Saves made while the index is live are
//! folded in with [`Repository::add`] — scan once, incremental add after.
//!
//! [`Repository::nearest`] ranks stored models against a query
//! [`Signature`] by [`Signature::similarity`], highest first with path as
//! the tiebreak — a total, deterministic order, so `certa-store search`
//! output is byte-identical across runs. Unsigned artifacts (saved before
//! signatures existed in spirit, i.e. through the plain `save_model`
//! path) and unreadable files are skipped and counted, never silently
//! conflated with an empty store.
//!
//! Like `signature.rs`, this module is covered by certa-lint's
//! determinism rules at deny level with zero suppressions.

use crate::error::Result;
use crate::model::peek_model_signature;
use crate::signature::{ModelSignature, Signature};
use crate::store::{ModelStore, EXTENSION};
use std::path::PathBuf;

/// One indexed stored model: where it lives and what it was trained on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoEntry {
    /// Artifact path inside the store directory.
    pub path: PathBuf,
    /// The training dataset's signature and provenance.
    pub signature: ModelSignature,
}

/// A path-sorted index of every *signed* model artifact in a store.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    entries: Vec<RepoEntry>,
    skipped: usize,
}

impl Repository {
    /// Index a store directory. Model artifacts without a signature
    /// section, and files that fail verification, are skipped (see
    /// [`Repository::skipped`]); an absent directory indexes as empty.
    pub fn scan(store: &ModelStore) -> Result<Repository> {
        let suffix = format!(".model.{EXTENSION}");
        let mut repo = Repository::default();
        for path in store.list()? {
            let is_model = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(&suffix));
            if !is_model {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                repo.skipped += 1;
                continue;
            };
            match peek_model_signature(&bytes) {
                Ok(Some(signature)) => repo.entries.push(RepoEntry { path, signature }),
                // Unsigned or corrupt: not searchable (gc handles corrupt).
                Ok(None) | Err(_) => repo.skipped += 1,
            }
        }
        // `ModelStore::list` is already name-sorted; keep the invariant
        // explicit so `add` can binary-search.
        repo.entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(repo)
    }

    /// Fold a just-saved artifact into the index, replacing any previous
    /// entry at the same path.
    pub fn add(&mut self, path: PathBuf, signature: ModelSignature) {
        self.entries.retain(|e| e.path != path);
        let at = self.entries.partition_point(|e| e.path < path);
        self.entries.insert(at, RepoEntry { path, signature });
    }

    /// Indexed entries, path-sorted.
    pub fn entries(&self) -> &[RepoEntry] {
        &self.entries
    }

    /// Number of indexed (signed, readable) model artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Model artifacts present on disk but not indexed (unsigned,
    /// unreadable, or corrupt).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The `k` stored models nearest to `query`, ranked by similarity
    /// descending with path ascending as the tiebreak. Deterministic: a
    /// total order over a path-sorted index.
    pub fn nearest(&self, query: &Signature, k: usize) -> Vec<(f64, &RepoEntry)> {
        let mut ranked: Vec<(f64, &RepoEntry)> = self
            .entries
            .iter()
            .map(|e| (query.similarity(&e.signature.signature), e))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.path.cmp(&b.1.path)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::build_signature;
    use certa_datagen::{generate, DatasetId, Scale};
    use certa_models::{train_model, ModelKind, TrainConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store(tag: &str) -> ModelStore {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "certa-repo-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ModelStore::new(dir)
    }

    fn save_signed(store: &ModelStore, id: DatasetId, seed: u64) -> PathBuf {
        let d = generate(id, Scale::Smoke, seed);
        let kind = ModelKind::DeepMatcher;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        store
            .save_model_signed(id, kind, Scale::Smoke, seed, &model, &d)
            .unwrap()
    }

    #[test]
    fn scan_indexes_signed_models_and_skips_the_rest() {
        let store = temp_store("scan");
        let fz7 = save_signed(&store, DatasetId::FZ, 7);
        let fz8 = save_signed(&store, DatasetId::FZ, 8);

        // An unsigned model (plain save path) and a dataset artifact.
        let d = generate(DatasetId::AB, Scale::Smoke, 7);
        let kind = ModelKind::DeepMatcher;
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        store
            .save_model(DatasetId::AB, kind, Scale::Smoke, 7, &model)
            .unwrap();
        store
            .save_dataset(DatasetId::AB, Scale::Smoke, 7, &d)
            .unwrap();

        let repo = Repository::scan(&store).unwrap();
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.skipped(), 1, "unsigned model counted, not indexed");
        let paths: Vec<_> = repo.entries().iter().map(|e| e.path.clone()).collect();
        assert_eq!(paths, vec![fz7.clone(), fz8.clone()]);
        assert!(repo.entries().iter().all(|e| e.signature.dataset == "FZ"));

        // Nearest: a sibling seed of FZ beats nothing else only in rank
        // order; both hits rank above similarity floor expectations.
        let query = build_signature(&generate(DatasetId::FZ, Scale::Smoke, 9));
        let hits = repo.nearest(&query, 10);
        assert_eq!(hits.len(), 2);
        let (top_sim, top) = &hits[0];
        assert!(*top_sim >= hits[1].0, "ranked descending");
        assert!(top.path == fz7 || top.path == fz8);
        assert!(repo.nearest(&query, 1).len() == 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn nearest_is_deterministic_and_add_replaces() {
        let store = temp_store("det");
        let fz7 = save_signed(&store, DatasetId::FZ, 7);
        save_signed(&store, DatasetId::AB, 7);

        let repo = Repository::scan(&store).unwrap();
        let query = build_signature(&generate(DatasetId::FZ, Scale::Smoke, 8));
        let a: Vec<(u64, PathBuf)> = repo
            .nearest(&query, 5)
            .into_iter()
            .map(|(s, e)| (s.to_bits(), e.path.clone()))
            .collect();
        let b: Vec<(u64, PathBuf)> = Repository::scan(&store)
            .unwrap()
            .nearest(&query, 5)
            .into_iter()
            .map(|(s, e)| (s.to_bits(), e.path.clone()))
            .collect();
        assert_eq!(a, b, "rescan + rerank is bit-identical");
        assert_eq!(
            a.first().map(|(_, p)| p.clone()),
            Some(fz7.clone()),
            "sibling FZ model ranks first"
        );

        let mut repo = repo;
        let n = repo.len();
        let sig = repo.entries()[0].signature.clone();
        repo.add(fz7.clone(), sig);
        assert_eq!(repo.len(), n, "same-path add replaces, not duplicates");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
