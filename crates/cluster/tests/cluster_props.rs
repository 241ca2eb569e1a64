//! Property tests for the clustering layer's contracts:
//!
//! 1. **Determinism** — the full pipeline (score → threshold → cluster)
//!    yields a byte-identical [`Partition`] across runs, worker counts, and
//!    batch sizes, for both clusterers.
//! 2. **Threshold monotonicity** — transitive-closure clusters only merge
//!    as the threshold drops: every cluster at a high threshold is
//!    contained in exactly one cluster at any lower threshold. (Match-merge
//!    is deliberately excluded: admitting a new low-score edge can change a
//!    merged profile and veto an edge the stricter run accepted, so its
//!    partitions need not nest across thresholds.)
//! 3. **Refinement** — at any single threshold, match-merge only ever
//!    splits what transitive closure joins, never the reverse.
//! 4. **Union-find oracle** — [`UnionFind::groups`] agrees with a plain
//!    DFS connected-components oracle on arbitrary random graphs.

use certa_cluster::{
    run_cluster_pipeline, ClusterConfig, Clusterer, ConnectedComponents, MatchMerge, Partition,
    UnionFind,
};
use certa_core::{Dataset, FnMatcher, Matcher, Record, RecordId, RecordPair, Schema, Table};
use proptest::prelude::*;

/// Build one table from generated `"a x"` value rows (split on the space
/// into the two attributes — the shim has no tuple strategies).
fn table(name: &str, rows: &[String]) -> Table {
    let schema = Schema::shared(name, ["a", "b"]);
    let mut t = Table::new(schema);
    for (i, row) in rows.iter().enumerate() {
        let (a, b) = row.split_once(' ').expect("row strategy emits two words");
        t.insert(Record::new(
            RecordId(i as u32),
            vec![a.to_string(), b.to_string()],
        ))
        .expect("arity matches schema");
    }
    t
}

fn dataset(lrows: &[String], rrows: &[String]) -> Dataset {
    Dataset::new("prop", table("U", lrows), table("V", rrows), vec![], vec![])
        .expect("non-empty tables")
}

/// Every left × right pair, in canonical candidate order.
fn all_pairs(dataset: &Dataset) -> Vec<RecordPair> {
    let mut out = Vec::new();
    for l in 0..dataset.left().len() as u32 {
        for r in 0..dataset.right().len() as u32 {
            out.push(RecordPair::new(RecordId(l), RecordId(r)));
        }
    }
    out
}

/// A deterministic toy matcher: the fraction of attribute positions whose
/// values are equal (0.0, 0.5, or 1.0 at arity 2). Tiny alphabets in the
/// row strategy make every score level common.
fn matcher() -> impl Matcher {
    FnMatcher::new("eq-frac", |u: &Record, v: &Record| {
        let arity = u.values().len();
        let equal = (0..arity)
            .filter(|&i| u.values()[i] == v.values()[i])
            .count();
        equal as f64 / arity as f64
    })
}

/// Rows drawn from a tiny alphabet so cross-side value collisions (and thus
/// non-trivial clusters) are frequent.
fn rows_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ab]{1,2} [xy]{1,2}", 1..10)
}

/// Check `fine` refines `coarse`: every `fine` cluster's members share one
/// `coarse` cluster.
fn assert_refines(fine: &Partition, coarse: &Partition) -> Result<(), TestCaseError> {
    for members in fine.clusters() {
        let home = coarse
            .cluster_of(members[0])
            .expect("same node universe in both partitions");
        for &node in members {
            prop_assert_eq!(
                coarse.cluster_of(node),
                Some(home),
                "cluster {:?} is split in the coarser partition",
                members
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The pipeline's partition is byte-identical across runs and worker
    /// counts, for both clusterers.
    #[test]
    fn pipeline_deterministic_across_runs_and_workers(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        threshold in 0.2f64..0.9,
    ) {
        let d = dataset(&lrows, &rrows);
        let m = matcher();
        let candidates = all_pairs(&d);
        let clusterers: [&dyn Clusterer; 2] = [&ConnectedComponents, &MatchMerge];
        for clusterer in clusterers {
            let run = |workers: usize| {
                run_cluster_pipeline(
                    &d,
                    &m,
                    &candidates,
                    "all-pairs".to_string(),
                    clusterer,
                    &ClusterConfig { threshold, workers },
                )
                .partition
                .to_bytes()
            };
            let reference = run(1);
            prop_assert_eq!(run(1), reference.clone(), "second run differs");
            prop_assert_eq!(run(2), reference.clone(), "2 workers differ");
            prop_assert_eq!(run(8), reference, "8 workers differ");
        }
    }

    /// Transitive-closure clusters only merge as the threshold drops: the
    /// stricter partition refines the looser one.
    #[test]
    fn components_nest_as_threshold_drops(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        tau_lo in 0.1f64..0.5,
        tau_gap in 0.05f64..0.5,
    ) {
        let d = dataset(&lrows, &rrows);
        let m = matcher();
        let candidates = all_pairs(&d);
        let run = |threshold: f64| {
            run_cluster_pipeline(
                &d,
                &m,
                &candidates,
                "all-pairs".to_string(),
                &ConnectedComponents,
                &ClusterConfig { threshold, ..ClusterConfig::default() },
            )
            .partition
        };
        let strict = run(tau_lo + tau_gap);
        let loose = run(tau_lo);
        prop_assert!(strict.len() >= loose.len(), "dropping the threshold can only merge");
        assert_refines(&strict, &loose)?;
    }

    /// At one threshold, match-merge's profile veto only ever splits what
    /// transitive closure joins — it never invents a link.
    #[test]
    fn matchmerge_refines_components(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        threshold in 0.2f64..0.9,
    ) {
        let d = dataset(&lrows, &rrows);
        let m = matcher();
        let candidates = all_pairs(&d);
        let run = |clusterer: &dyn Clusterer| {
            run_cluster_pipeline(
                &d,
                &m,
                &candidates,
                "all-pairs".to_string(),
                clusterer,
                &ClusterConfig { threshold, ..ClusterConfig::default() },
            )
            .partition
        };
        assert_refines(&run(&MatchMerge), &run(&ConnectedComponents))?;
    }

    /// `UnionFind::groups` matches a DFS connected-components oracle on
    /// random graphs.
    #[test]
    fn union_find_matches_dfs_oracle(
        n in 1usize..32,
        raw_edges in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        // Each u64 packs one edge (no tuple strategies in the shim).
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .map(|h| ((h as usize) % n, ((h >> 16) as usize) % n))
            .collect();

        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        let groups = uf.groups();

        // Oracle: iterative DFS over an adjacency list.
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut component = vec![usize::MAX; n];
        let mut oracle: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = oracle.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            component[start] = id;
            while let Some(v) = stack.pop() {
                members.push(v);
                for &w in &adj[v] {
                    if component[w] == usize::MAX {
                        component[w] = id;
                        stack.push(w);
                    }
                }
            }
            members.sort_unstable();
            oracle.push(members);
        }
        // Both sides list components sorted by first (= smallest) member.
        prop_assert_eq!(groups, oracle);
    }
}
