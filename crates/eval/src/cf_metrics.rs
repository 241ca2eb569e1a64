//! Counterfactual quality metrics (Tables 4–6, Figure 10): proximity,
//! sparsity, diversity, and average example counts. Higher is better for
//! all three metrics (§5.3).

use certa_core::{Dataset, LabeledPair, Record};
use certa_explain::{CounterfactualExample, CounterfactualExplanation};
use certa_text::{attribute_dist, attribute_sim};

/// Aggregated counterfactual metrics over a set of explained pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CfAggregate {
    /// Mean proximity over pairs that produced at least one example.
    pub proximity: f64,
    /// Mean sparsity over pairs that produced at least one example.
    pub sparsity: f64,
    /// Mean diversity over all pairs (pairs with < 2 examples contribute 0,
    /// matching the zero cells of Table 6).
    pub diversity: f64,
    /// Mean number of examples generated per explained pair.
    pub count: f64,
    /// Number of explained pairs.
    pub pairs: usize,
}

/// Proximity of one example: mean attribute-wise similarity between the
/// counterfactual pair and the original pair, over all attributes of both
/// records.
pub fn example_proximity(u: &Record, v: &Record, ex: &CounterfactualExample) -> f64 {
    let total = u.arity() + v.arity();
    if total == 0 {
        return 1.0;
    }
    let mut acc = 0.0;
    for i in 0..u.arity() {
        acc += attribute_sim(&u.values()[i], &ex.left.values()[i]);
    }
    for i in 0..v.arity() {
        acc += attribute_sim(&v.values()[i], &ex.right.values()[i]);
    }
    acc / total as f64
}

/// Sparsity of one example: fraction of attributes whose values are
/// unchanged from the original input.
pub fn example_sparsity(u: &Record, v: &Record, ex: &CounterfactualExample) -> f64 {
    let total = u.arity() + v.arity();
    if total == 0 {
        return 1.0;
    }
    let mut unchanged = 0usize;
    for i in 0..u.arity() {
        if u.values()[i] == ex.left.values()[i] {
            unchanged += 1;
        }
    }
    for i in 0..v.arity() {
        if v.values()[i] == ex.right.values()[i] {
            unchanged += 1;
        }
    }
    unchanged as f64 / total as f64
}

/// Diversity of an example set: mean pairwise attribute-wise distance
/// between the counterfactual pairs; 0 when fewer than two examples exist.
pub fn set_diversity(explanation: &CounterfactualExplanation) -> f64 {
    let exs = &explanation.examples;
    if exs.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut n = 0usize;
    for i in 0..exs.len() {
        for j in (i + 1)..exs.len() {
            acc += example_pair_distance(&exs[i], &exs[j]);
            n += 1;
        }
    }
    acc / n as f64
}

fn example_pair_distance(a: &CounterfactualExample, b: &CounterfactualExample) -> f64 {
    let total = a.left.arity() + a.right.arity();
    if total == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..a.left.arity() {
        acc += attribute_dist(&a.left.values()[i], &b.left.values()[i]);
    }
    for i in 0..a.right.arity() {
        acc += attribute_dist(&a.right.values()[i], &b.right.values()[i]);
    }
    acc / total as f64
}

/// Aggregate every counterfactual metric over `explanations`, one
/// counterfactual explanation per pair of `pairs` in the same order.
pub fn cf_metrics_for(
    dataset: &Dataset,
    explanations: &[CounterfactualExplanation],
    pairs: &[LabeledPair],
) -> CfAggregate {
    assert!(!pairs.is_empty(), "need at least one pair");
    assert_eq!(explanations.len(), pairs.len());
    let mut prox_sum = 0.0;
    let mut spars_sum = 0.0;
    let mut with_examples = 0usize;
    let mut div_sum = 0.0;
    let mut count_sum = 0.0;
    for (lp, cf) in pairs.iter().zip(explanations) {
        let (u, v) = dataset.expect_pair(lp.pair);
        count_sum += cf.examples.len() as f64;
        div_sum += set_diversity(cf);
        if !cf.examples.is_empty() {
            let p: f64 = cf
                .examples
                .iter()
                .map(|ex| example_proximity(u, v, ex))
                .sum::<f64>()
                / cf.examples.len() as f64;
            let s: f64 = cf
                .examples
                .iter()
                .map(|ex| example_sparsity(u, v, ex))
                .sum::<f64>()
                / cf.examples.len() as f64;
            prox_sum += p;
            spars_sum += s;
            with_examples += 1;
        }
    }
    let n = pairs.len() as f64;
    CfAggregate {
        proximity: if with_examples > 0 {
            prox_sum / with_examples as f64
        } else {
            0.0
        },
        sparsity: if with_examples > 0 {
            spars_sum / with_examples as f64
        } else {
            0.0
        },
        diversity: div_sum / n,
        count: count_sum / n,
        pairs: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{RecordId, Schema, Side, Table};
    use certa_explain::AttrRef;

    fn orig() -> (Record, Record) {
        (
            Record::new(RecordId(0), vec!["sony bravia".into(), "100".into()]),
            Record::new(RecordId(1), vec!["sony bravia tv".into(), "110".into()]),
        )
    }

    fn example(
        left_vals: &[&str],
        right_vals: &[&str],
        changed: Vec<AttrRef>,
    ) -> CounterfactualExample {
        CounterfactualExample {
            left: Record::new(
                RecordId(0),
                left_vals.iter().map(|s| s.to_string()).collect(),
            ),
            right: Record::new(
                RecordId(1),
                right_vals.iter().map(|s| s.to_string()).collect(),
            ),
            changed,
            score: 0.4,
        }
    }

    #[test]
    fn identity_example_maxes_proximity_and_sparsity() {
        let (u, v) = orig();
        let ex = example(&["sony bravia", "100"], &["sony bravia tv", "110"], vec![]);
        assert!((example_proximity(&u, &v, &ex) - 1.0).abs() < 1e-9);
        assert_eq!(example_sparsity(&u, &v, &ex), 1.0);
    }

    #[test]
    fn single_change_sparsity() {
        let (u, v) = orig();
        let ex = example(
            &["canon pixma", "100"],
            &["sony bravia tv", "110"],
            vec![AttrRef::new(Side::Left, 0)],
        );
        assert_eq!(
            example_sparsity(&u, &v, &ex),
            0.75,
            "3 of 4 attrs unchanged"
        );
        assert!(example_proximity(&u, &v, &ex) < 1.0);
    }

    #[test]
    fn small_edits_are_closer_than_total_rewrites() {
        let (u, v) = orig();
        let small = example(
            &["sony bravia theater", "100"],
            &["sony bravia tv", "110"],
            vec![AttrRef::new(Side::Left, 0)],
        );
        let big = example(
            &["lg washer dryer", "9999"],
            &["canon pixma printer", "5"],
            vec![
                AttrRef::new(Side::Left, 0),
                AttrRef::new(Side::Left, 1),
                AttrRef::new(Side::Right, 0),
                AttrRef::new(Side::Right, 1),
            ],
        );
        assert!(example_proximity(&u, &v, &small) > example_proximity(&u, &v, &big));
    }

    #[test]
    fn diversity_zero_below_two_examples() {
        let mut cf = CounterfactualExplanation::default();
        assert_eq!(set_diversity(&cf), 0.0);
        cf.examples.push(example(&["a", "b"], &["c", "d"], vec![]));
        assert_eq!(set_diversity(&cf), 0.0);
        cf.examples.push(example(&["x", "y"], &["z", "w"], vec![]));
        assert!(set_diversity(&cf) > 0.5, "disjoint examples are diverse");
        cf.examples.push(example(&["x", "y"], &["z", "w"], vec![]));
        // Adding a duplicate lowers mean pairwise distance.
        let with_dup = set_diversity(&cf);
        cf.examples.pop();
        assert!(with_dup < set_diversity(&cf) + 1e-9);
    }

    #[test]
    fn aggregate_follows_the_definitions() {
        let (u, v) = orig();
        let mk = |r: &Record, name: &str| {
            Table::from_records(Schema::shared(name, ["name", "price"]), vec![r.clone()]).unwrap()
        };
        let pair = LabeledPair::new(RecordId(0), RecordId(1), true);
        let d = Dataset::new("toy", mk(&u, "U"), mk(&v, "V"), vec![pair], vec![pair]).unwrap();
        let near = example(&["sony bravia", "100"], &["sony bravia tv", "110"], vec![]);
        let far = example(
            &["canon pixma", "100"],
            &["sony bravia tv", "110"],
            vec![AttrRef::new(Side::Left, 0)],
        );
        let found = CounterfactualExplanation {
            examples: vec![near.clone(), far.clone()],
            ..Default::default()
        };
        let none = CounterfactualExplanation::default();
        let agg = cf_metrics_for(&d, &[found.clone(), none], &[pair, pair]);
        // Proximity and sparsity average over the pairs with examples only;
        // diversity and count average over every pair.
        let prox = (example_proximity(&u, &v, &near) + example_proximity(&u, &v, &far)) / 2.0;
        assert_eq!(agg.proximity, prox);
        assert_eq!(agg.sparsity, (1.0 + 0.75) / 2.0);
        assert_eq!(agg.diversity, set_diversity(&found) / 2.0);
        assert_eq!(agg.count, 1.0);
        assert_eq!(agg.pairs, 2);
    }
}
