//! Cluster-membership explanations.
//!
//! A partition answers *what* the entities are; this module answers *why a
//! record is in its cluster* — in the same post-hoc, black-box setting as
//! the pairwise CERTA explainer:
//!
//! * **Evidence** — the intra-cluster edge scores holding the cluster
//!   together, and the subset incident to the queried record.
//! * **Structure** — the *bridge* edges of the cluster subgraph: removing
//!   any one of them splits the cluster (the size-1 min-cuts). A cluster
//!   with no bridges is 2-edge-connected — no single score flip can break
//!   it.
//! * **Attribution** — per-edge attribute saliency for the incident edges,
//!   via [`Certa::explain_batch`].
//! * **Counterfactual** — the ψ-mask attribute edit (values copied from a
//!   same-side donor record outside the cluster, exactly the perturbation
//!   machinery of the pairwise explainer) that pushes *every* candidate
//!   edge between the record and its cluster peers below the match
//!   threshold. [`verify_disconnect`] confirms the edit by rebuilding the
//!   dataset with the edited record and re-clustering from scratch.

use crate::graph::{score_candidates, threshold_edges, ScoredEdge};
use crate::partition::{ClusterNode, Partition};
use crate::Clusterer;
use certa_core::{AttrId, Dataset, Matcher, Record, RecordPair, Side, Table};
use certa_explain::perturb::perturb;
use certa_explain::{AttrMask, Certa, CertaExplanation};

/// Why a record sits in its cluster. All edge lists are in canonical
/// `(left, right)` pair order.
#[derive(Debug, Clone)]
pub struct MembershipExplanation {
    /// The queried record.
    pub node: ClusterNode,
    /// Index of its cluster in the partition.
    pub cluster_index: usize,
    /// The cluster's members, sorted.
    pub members: Vec<ClusterNode>,
    /// All thresholded edges between cluster members.
    pub intra_edges: Vec<ScoredEdge>,
    /// The subset of `intra_edges` touching the queried record.
    pub incident: Vec<ScoredEdge>,
    /// Bridge edges of the cluster subgraph — removing any one splits the
    /// cluster.
    pub bridges: Vec<RecordPair>,
    /// CERTA explanations for the first few incident edges (attribute
    /// saliency + pairwise counterfactuals), in `incident` order.
    pub saliency: Vec<(RecordPair, CertaExplanation)>,
    /// The attribute edit that disconnects the record from its peers, when
    /// the search budget finds one.
    pub counterfactual: Option<DisconnectEdit>,
}

/// A ψ-mask attribute edit that disconnects a record from its cluster:
/// copying `attrs` from `donor` into the record drops every candidate edge
/// to its former peers below the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DisconnectEdit {
    /// The record being edited.
    pub node: ClusterNode,
    /// Same-side record (outside the cluster) whose values are copied in.
    pub donor: ClusterNode,
    /// The attributes replaced — the ψ mask, ascending.
    pub attrs: Vec<AttrId>,
    /// The edited record's resulting attribute values.
    pub edited_values: Vec<String>,
    /// Post-edit scores of every candidate edge to a former peer — all
    /// strictly below the threshold.
    pub scores_after: Vec<(RecordPair, f64)>,
}

/// The record a node refers to.
fn record_of(dataset: &Dataset, node: ClusterNode) -> &Record {
    dataset.table(node.side).expect(node.id)
}

/// Does the edge touch `node`?
fn touches(edge: &ScoredEdge, node: ClusterNode) -> bool {
    edge.pair.on(node.side) == node.id
}

/// Explain a record's cluster membership. Returns `None` when `node` is not
/// covered by the partition. `edges` must be the thresholded match graph
/// the partition was built from; `scored` the full pre-threshold candidate
/// scores (used by the counterfactual search, which must also keep
/// sub-threshold peer edges below the line after the edit). Pass a
/// [`Certa`] to attach per-edge saliency for up to `saliency_top` incident
/// edges.
#[allow(clippy::too_many_arguments)]
pub fn explain_membership(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    certa: Option<(&Certa, usize)>,
    scored: &[ScoredEdge],
    edges: &[ScoredEdge],
    partition: &Partition,
    node: ClusterNode,
    threshold: f64,
) -> Option<MembershipExplanation> {
    let cluster_index = partition.cluster_of(node)?;
    let members = partition.members(cluster_index).to_vec();
    let in_cluster = |n: ClusterNode| members.binary_search(&n).is_ok();
    let intra_edges: Vec<ScoredEdge> = edges
        .iter()
        .filter(|e| {
            in_cluster(ClusterNode {
                side: Side::Left,
                id: e.pair.left,
            }) && in_cluster(ClusterNode {
                side: Side::Right,
                id: e.pair.right,
            })
        })
        .copied()
        .collect();
    let incident: Vec<ScoredEdge> = intra_edges
        .iter()
        .filter(|e| touches(e, node))
        .copied()
        .collect();
    let bridges = find_bridges(&members, &intra_edges);

    let saliency = match certa {
        Some((certa, top)) if top > 0 && !incident.is_empty() => {
            let chosen: Vec<RecordPair> = incident.iter().take(top).map(|e| e.pair).collect();
            let refs: Vec<(&Record, &Record)> =
                chosen.iter().map(|&p| dataset.expect_pair(p)).collect();
            chosen
                .iter()
                .copied()
                .zip(certa.explain_batch(matcher, dataset, &refs))
                .collect()
        }
        _ => Vec::new(),
    };

    let counterfactual =
        find_disconnect_edit(dataset, matcher, scored, partition, node, threshold, 4);

    Some(MembershipExplanation {
        node,
        cluster_index,
        members,
        intra_edges,
        incident,
        bridges,
        saliency,
        counterfactual,
    })
}

/// Bridge edges of the subgraph induced by `members` and `intra_edges`
/// (which must connect members only), via iterative Tarjan lowlink. Output
/// is in `intra_edges` order, hence canonical pair order.
pub fn find_bridges(members: &[ClusterNode], intra_edges: &[ScoredEdge]) -> Vec<RecordPair> {
    let m = members.len();
    let index_of = |n: ClusterNode| -> usize {
        members
            .binary_search(&n)
            .expect("intra-cluster edge endpoint must be a member")
    };
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m];
    for (ei, e) in intra_edges.iter().enumerate() {
        let a = index_of(ClusterNode {
            side: Side::Left,
            id: e.pair.left,
        });
        let b = index_of(ClusterNode {
            side: Side::Right,
            id: e.pair.right,
        });
        adj[a].push((b, ei));
        adj[b].push((a, ei));
    }

    const UNSEEN: usize = usize::MAX;
    let mut disc = vec![UNSEEN; m];
    let mut low = vec![0usize; m];
    let mut timer = 0usize;
    let mut is_bridge = vec![false; intra_edges.len()];
    // (vertex, edge used to enter it, next adjacency position to scan).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for start in 0..m {
        if disc[start] != UNSEEN {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push((start, usize::MAX, 0));
        while let Some(frame) = stack.last_mut() {
            let (v, enter_edge, pos) = (frame.0, frame.1, frame.2);
            if pos < adj[v].len() {
                frame.2 += 1;
                let (to, ei) = adj[v][pos];
                if ei == enter_edge {
                    continue; // don't re-walk the tree edge we came in on
                }
                if disc[to] == UNSEEN {
                    disc[to] = timer;
                    low[to] = timer;
                    timer += 1;
                    stack.push((to, ei, 0));
                } else {
                    low[v] = low[v].min(disc[to]);
                }
            } else {
                stack.pop();
                if let Some(parent) = stack.last_mut() {
                    let pv = parent.0;
                    low[pv] = low[pv].min(low[v]);
                    if low[v] > disc[pv] {
                        is_bridge[enter_edge] = true;
                    }
                }
            }
        }
    }
    intra_edges
        .iter()
        .zip(&is_bridge)
        .filter(|(_, &b)| b)
        .map(|(e, _)| e.pair)
        .collect()
}

/// All masks over `arity` attributes, smallest edits first: sorted by
/// (popcount, numeric value), excluding the empty mask. Arity is capped at
/// 16 bits of full enumeration; beyond that only single-attribute masks and
/// the full mask are tried (a bounded, documented search budget).
fn candidate_masks(arity: usize) -> Vec<AttrMask> {
    let arity = arity.min(AttrMask::BITS as usize);
    let mut masks: Vec<AttrMask> = if arity <= 16 {
        let full: u64 = (1u64 << arity) - 1;
        (1..=full).map(|m| m as AttrMask).collect()
    } else {
        let mut singles: Vec<AttrMask> = (0..arity).map(|i| (1 as AttrMask) << i).collect();
        let full = if arity == AttrMask::BITS as usize {
            AttrMask::MAX
        } else {
            ((1 as AttrMask) << arity) - 1
        };
        singles.push(full);
        singles
    };
    masks.sort_unstable_by_key(|&m| (m.count_ones(), m));
    masks
}

/// Search for the smallest ψ-mask edit that disconnects `node` from its
/// cluster: try up to `max_donors` same-side records outside the cluster
/// (ascending id — deterministic), and for each, masks in smallest-first
/// order. An edit qualifies when **every** candidate edge between `node`
/// and a cluster peer scores strictly below `threshold` post-edit.
///
/// Returns `None` for singletons (nothing to disconnect) and when the
/// budget finds no qualifying edit.
pub fn find_disconnect_edit(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    scored: &[ScoredEdge],
    partition: &Partition,
    node: ClusterNode,
    threshold: f64,
    max_donors: usize,
) -> Option<DisconnectEdit> {
    let cluster_index = partition.cluster_of(node)?;
    let members = partition.members(cluster_index);
    if members.len() < 2 {
        return None;
    }
    let peer_of = |e: &ScoredEdge| -> ClusterNode {
        match node.side {
            Side::Left => ClusterNode {
                side: Side::Right,
                id: e.pair.right,
            },
            Side::Right => ClusterNode {
                side: Side::Left,
                id: e.pair.left,
            },
        }
    };
    // Every candidate edge to a cluster peer — including sub-threshold ones,
    // which must not be pushed *above* the line by the edit.
    let targets: Vec<ScoredEdge> = scored
        .iter()
        .filter(|e| touches(e, node) && members.binary_search(&peer_of(e)).is_ok())
        .copied()
        .collect();
    if targets.is_empty() {
        return None;
    }

    let free = record_of(dataset, node);
    let mut donors: Vec<ClusterNode> = dataset
        .table(node.side)
        .records()
        .iter()
        .map(|r| ClusterNode {
            side: node.side,
            id: r.id(),
        })
        .filter(|&n| partition.cluster_of(n) != Some(cluster_index))
        .collect();
    donors.sort_unstable();
    let masks = candidate_masks(free.arity());

    for &donor in donors.iter().take(max_donors) {
        let donor_rec = record_of(dataset, donor);
        for &mask in &masks {
            let edited = perturb(free, donor_rec, mask);
            let mut scores_after = Vec::with_capacity(targets.len());
            let mut all_below = true;
            for t in &targets {
                let score = match node.side {
                    Side::Left => matcher.score(&edited, dataset.right().expect(t.pair.right)),
                    Side::Right => matcher.score(dataset.left().expect(t.pair.left), &edited),
                };
                if score.is_nan() || score >= threshold {
                    all_below = false;
                    break;
                }
                scores_after.push((t.pair, score));
            }
            if all_below {
                let attrs: Vec<AttrId> = (0..free.arity())
                    .filter(|&i| mask & ((1 as AttrMask) << i) != 0)
                    .map(|i| AttrId(i as u16))
                    .collect();
                return Some(DisconnectEdit {
                    node,
                    donor,
                    attrs,
                    edited_values: edited
                        .values()
                        .iter()
                        .map(|v| v.as_str().to_string())
                        .collect(),
                    scores_after,
                });
            }
        }
    }
    None
}

/// Rebuild `dataset` with `edit` applied to its record.
pub fn apply_edit(dataset: &Dataset, edit: &DisconnectEdit) -> Dataset {
    let free = record_of(dataset, edit.node);
    let donor = record_of(dataset, edit.donor);
    let mut mask: AttrMask = 0;
    for a in &edit.attrs {
        mask |= (1 as AttrMask) << a.index();
    }
    let edited = perturb(free, donor, mask);
    let rebuild = |table: &Table| -> Table {
        let records: Vec<Record> = table
            .records()
            .iter()
            .map(|r| {
                if r.id() == edited.id() {
                    edited.clone()
                } else {
                    r.clone()
                }
            })
            .collect();
        Table::from_records(table.schema().clone(), records)
            .expect("edited record keeps the schema arity")
    };
    let (left, right) = match edit.node.side {
        Side::Left => (rebuild(dataset.left()), dataset.right().clone()),
        Side::Right => (dataset.left().clone(), rebuild(dataset.right())),
    };
    Dataset::new(
        dataset.name(),
        left,
        right,
        dataset.split(certa_core::Split::Train).to_vec(),
        dataset.split(certa_core::Split::Test).to_vec(),
    )
    .expect("edited dataset stays valid")
}

/// Verify a disconnect edit **by re-clustering**: apply the edit to a copy
/// of the dataset, re-score every original candidate pair against the
/// edited records, re-threshold, re-cluster with the same clusterer, and
/// check the edited record no longer shares a cluster with any former peer.
pub fn verify_disconnect(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    clusterer: &dyn Clusterer,
    scored: &[ScoredEdge],
    partition: &Partition,
    threshold: f64,
    edit: &DisconnectEdit,
) -> bool {
    let Some(cluster_index) = partition.cluster_of(edit.node) else {
        return false;
    };
    let former_peers: Vec<ClusterNode> = partition
        .members(cluster_index)
        .iter()
        .copied()
        .filter(|&n| n != edit.node)
        .collect();
    let edited = apply_edit(dataset, edit);
    let pairs: Vec<RecordPair> = scored.iter().map(|e| e.pair).collect();
    let rescored = score_candidates(&edited, matcher, &pairs, 1);
    let new_edges = threshold_edges(&rescored, threshold);
    let new_partition = clusterer.cluster(&edited, matcher, &new_edges, threshold);
    let Some(new_index) = new_partition.cluster_of(edit.node) else {
        return false;
    };
    let new_members = new_partition.members(new_index);
    former_peers
        .iter()
        .all(|p| new_members.binary_search(p).is_err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectedComponents, Partition};
    use certa_core::{FnMatcher, RecordId, Schema};

    fn record(i: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(i), vals.iter().map(|s| s.to_string()).collect())
    }

    /// Left and right: records 0..n with a "key" and "noise" attribute.
    /// Key equality drives the matcher.
    fn dataset() -> Dataset {
        let schema = Schema::shared("T", ["key", "noise"]);
        let mk = |i: u32, key: &str| record(i, &[key, &format!("noise {i}")]);
        // L0, L1, R0, R1 share key "alpha"; L2/R2 share "beta"; R3 "gamma".
        let left = vec![mk(0, "alpha"), mk(1, "alpha"), mk(2, "beta")];
        let right = vec![
            mk(0, "alpha"),
            mk(1, "alpha"),
            mk(2, "beta"),
            mk(3, "gamma"),
        ];
        Dataset::new(
            "toy",
            Table::from_records(schema.clone(), left).unwrap(),
            Table::from_records(schema, right).unwrap(),
            vec![],
            vec![],
        )
        .unwrap()
    }

    fn matcher() -> impl Matcher {
        FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.1
            }
        })
    }

    fn all_pairs(d: &Dataset) -> Vec<RecordPair> {
        let mut out = Vec::new();
        for l in d.left().records() {
            for r in d.right().records() {
                out.push(RecordPair::new(l.id(), r.id()));
            }
        }
        out.sort_unstable_by_key(|p| (p.left.0, p.right.0));
        out
    }

    fn setup() -> (Dataset, Vec<ScoredEdge>, Vec<ScoredEdge>, Partition) {
        let d = dataset();
        let scored = score_candidates(&d, &matcher(), &all_pairs(&d), 1);
        let edges = threshold_edges(&scored, 0.5);
        let p = ConnectedComponents.cluster(&d, &matcher(), &edges, 0.5);
        (d, scored, edges, p)
    }

    #[test]
    fn membership_reports_edges_and_counterfactual() {
        let (d, scored, edges, p) = setup();
        let m = matcher();
        let exp = explain_membership(&d, &m, None, &scored, &edges, &p, ClusterNode::left(0), 0.5)
            .expect("L0 is covered");
        assert_eq!(
            exp.members,
            vec![
                ClusterNode::left(0),
                ClusterNode::left(1),
                ClusterNode::right(0),
                ClusterNode::right(1),
            ]
        );
        // Alpha cluster: every L×R combination matches → 4 intra edges, 2
        // incident to L0; the 4-cycle has no bridges.
        assert_eq!(exp.intra_edges.len(), 4);
        assert_eq!(exp.incident.len(), 2);
        assert!(exp.incident.iter().all(|e| e.pair.left == RecordId(0)));
        assert!(exp.bridges.is_empty(), "a 4-cycle has no bridges");
        assert!(exp.saliency.is_empty(), "no certa passed");
        let edit = exp.counterfactual.expect("an edit must exist");
        assert_eq!(edit.node, ClusterNode::left(0));
        // The minimal edit flips the key attribute only.
        assert_eq!(edit.attrs, vec![AttrId(0)]);
        assert_eq!(edit.scores_after.len(), 2, "both alpha peers checked");
        assert!(edit.scores_after.iter().all(|&(_, s)| s < 0.5));
    }

    #[test]
    fn bridges_found_in_a_chain() {
        let (d, _, _, _) = setup();
        // Chain: L0–R0–L1 (edges (0,0) and (1,0)); both are bridges.
        let members = vec![
            ClusterNode::left(0),
            ClusterNode::left(1),
            ClusterNode::right(0),
        ];
        let chain = vec![
            ScoredEdge {
                pair: RecordPair::new(RecordId(0), RecordId(0)),
                score: 0.9,
            },
            ScoredEdge {
                pair: RecordPair::new(RecordId(1), RecordId(0)),
                score: 0.9,
            },
        ];
        let bridges = find_bridges(&members, &chain);
        assert_eq!(
            bridges,
            vec![
                RecordPair::new(RecordId(0), RecordId(0)),
                RecordPair::new(RecordId(1), RecordId(0)),
            ]
        );
        let _ = d;
    }

    #[test]
    fn unknown_node_yields_none() {
        let (d, scored, edges, p) = setup();
        let m = matcher();
        assert!(explain_membership(
            &d,
            &m,
            None,
            &scored,
            &edges,
            &p,
            ClusterNode::left(99),
            0.5
        )
        .is_none());
    }

    #[test]
    fn singleton_has_no_counterfactual() {
        let (d, scored, _, p) = setup();
        let m = matcher();
        assert_eq!(
            find_disconnect_edit(&d, &m, &scored, &p, ClusterNode::right(3), 0.5, 4),
            None,
            "R3 is a singleton"
        );
    }

    #[test]
    fn disconnect_edit_verifies_by_reclustering() {
        let (d, scored, _, p) = setup();
        let m = matcher();
        let edit = find_disconnect_edit(&d, &m, &scored, &p, ClusterNode::left(0), 0.5, 4).unwrap();
        assert!(verify_disconnect(
            &d,
            &m,
            &ConnectedComponents,
            &scored,
            &p,
            0.5,
            &edit
        ));
        // A bogus edit (noise attribute only) must fail verification.
        let bogus = DisconnectEdit {
            attrs: vec![AttrId(1)],
            ..edit
        };
        assert!(!verify_disconnect(
            &d,
            &m,
            &ConnectedComponents,
            &scored,
            &p,
            0.5,
            &bogus
        ));
    }

    #[test]
    fn masks_enumerate_smallest_first() {
        let masks = candidate_masks(3);
        assert_eq!(masks, vec![0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]);
        let wide = candidate_masks(20);
        assert_eq!(wide.len(), 21, "singles + full mask beyond 16 attrs");
        assert_eq!(wide[0].count_ones(), 1);
        assert_eq!(wide.last().unwrap().count_ones(), 20);
    }
}
