//! Per-module rule scoping: which contract applies where.
//!
//! Paths are workspace-relative with forward slashes. An entry ending in
//! `/` is a prefix (whole directory); otherwise it must match the file
//! exactly. A rule runs on a file when some include entry matches and no
//! exclude entry does.
//!
//! The default policy encodes the repo's documented contracts:
//!
//! - the serve request path and the store decoder are panic-free
//!   (`no-panic-path`);
//! - everything that feeds serialized/wire output iterates in pinned
//!   order (`no-unordered-iteration`);
//! - scoring, featurization, and serialization are pure functions of
//!   their inputs (`no-nondeterminism`);
//! - float→text conversion is centralized in `wire::json`
//!   (`no-float-format`);
//! - the sharded caches, the serve registry and its warm-start state
//!   never acquire a second lock while one is held (`lock-order`),
//!   cross-checked dynamically by `certa_core::lockcheck` in debug builds.

use crate::rules::Level;

pub struct RuleScope {
    pub rule: &'static str,
    pub level: Level,
    pub include: &'static [&'static str],
    pub exclude: &'static [&'static str],
}

pub struct Policy {
    pub scopes: Vec<RuleScope>,
}

/// CLI binaries and the offline inspector print diagnostics for humans —
/// they are exempt from the wire-output contracts.
const BIN_EXCLUDES: &[&str] = &[
    "crates/serve/src/bin/",
    "crates/store/src/bin/",
    "crates/store/src/inspect.rs",
    "crates/block/src/bin/",
    "crates/cluster/src/bin/",
];

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            scopes: vec![
                RuleScope {
                    rule: "no-panic-path",
                    level: Level::Deny,
                    include: &[
                        "crates/serve/src/",
                        "crates/store/src/",
                        // The dense kernels sit on the serve hot path too: a
                        // panic there kills a scoring worker, so they carry
                        // the same contract.
                        "crates/ml/src/kernels.rs",
                    ],
                    exclude: BIN_EXCLUDES,
                },
                RuleScope {
                    rule: "no-unordered-iteration",
                    level: Level::Warn,
                    include: &[
                        "crates/serve/src/",
                        "crates/store/src/",
                        "crates/text/src/",
                        "crates/models/src/cache.rs",
                        "crates/models/src/memo.rs",
                        "crates/core/src/value.rs",
                        "crates/block/src/",
                    ],
                    // BIN_EXCLUDES expanded inline, plus the repository
                    // files that graduate to the Deny scope below.
                    exclude: &[
                        "crates/serve/src/bin/",
                        "crates/store/src/bin/",
                        "crates/store/src/inspect.rs",
                        "crates/block/src/bin/",
                        "crates/cluster/src/bin/",
                        "crates/store/src/signature.rs",
                        "crates/store/src/repository.rs",
                    ],
                },
                // The clusterer's partition bytes, the dataset signature
                // sketches, and the repository index ranking are compared
                // byte-for-byte across runs (bench_cluster and bench_repo
                // gates) — unordered iteration is promoted to a hard error
                // there.
                RuleScope {
                    rule: "no-unordered-iteration",
                    level: Level::Deny,
                    include: &[
                        "crates/cluster/src/",
                        "crates/store/src/signature.rs",
                        "crates/store/src/repository.rs",
                    ],
                    exclude: BIN_EXCLUDES,
                },
                RuleScope {
                    rule: "no-nondeterminism",
                    level: Level::Deny,
                    include: &[
                        "crates/core/src/",
                        "crates/text/src/",
                        "crates/ml/src/",
                        "crates/models/src/",
                        "crates/explain/src/",
                        "crates/serve/src/wire/",
                        // The reactor is clock-free on purpose (callers pass
                        // millisecond ticks), so the whole epoll/token-bucket
                        // layer is checkable as a pure function of its input.
                        "crates/serve/src/reactor.rs",
                        "crates/store/src/",
                        "crates/block/src/",
                        "crates/cluster/src/",
                    ],
                    exclude: BIN_EXCLUDES,
                },
                RuleScope {
                    rule: "no-float-format",
                    level: Level::Warn,
                    include: &["crates/serve/src/", "crates/store/src/"],
                    exclude: &[
                        "crates/serve/src/wire/json.rs",
                        "crates/serve/src/bin/",
                        "crates/store/src/bin/",
                        "crates/store/src/inspect.rs",
                    ],
                },
                RuleScope {
                    rule: "lock-order",
                    level: Level::Deny,
                    include: &[
                        "crates/models/src/cache.rs",
                        "crates/models/src/memo.rs",
                        "crates/serve/src/state.rs",
                        "crates/serve/src/warm.rs",
                        "crates/core/src/value.rs",
                    ],
                    exclude: &[],
                },
            ],
        }
    }
}

fn matches(path: &str, entry: &str) -> bool {
    if let Some(prefix) = entry.strip_suffix('/') {
        path.starts_with(prefix) && path[prefix.len()..].starts_with('/')
    } else {
        path == entry
    }
}

impl Policy {
    /// Rules (with levels) that apply to `path`.
    pub fn rules_for(&self, path: &str) -> Vec<(&'static str, Level)> {
        self.scopes
            .iter()
            .filter(|s| {
                s.include.iter().any(|e| matches(path, e))
                    && !s.exclude.iter().any(|e| matches(path, e))
            })
            .map(|s| (s.rule, s.level))
            .collect()
    }

    pub fn level_of(&self, rule: &str) -> Level {
        self.scopes
            .iter()
            .find(|s| s.rule == rule)
            .map_or(Level::Deny, |s| s.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sources_get_deny_level_determinism_rules() {
        let p = Policy::default();
        let rules = p.rules_for("crates/cluster/src/unionfind.rs");
        assert!(rules.contains(&("no-unordered-iteration", Level::Deny)));
        assert!(rules.contains(&("no-nondeterminism", Level::Deny)));
        // Exactly one scope matches per rule — no duplicate findings.
        assert_eq!(rules.len(), 2, "{rules:?}");
        assert!(p
            .rules_for("crates/cluster/src/bin/certa_cluster.rs")
            .is_empty());
    }

    #[test]
    fn repository_sources_get_deny_level_determinism_rules() {
        let p = Policy::default();
        for file in [
            "crates/store/src/signature.rs",
            "crates/store/src/repository.rs",
        ] {
            let rules = p.rules_for(file);
            assert!(
                rules.contains(&("no-unordered-iteration", Level::Deny)),
                "{file}: {rules:?}"
            );
            assert!(
                rules.contains(&("no-nondeterminism", Level::Deny)),
                "{file}: {rules:?}"
            );
            // Exactly one scope matches per rule — no duplicate findings.
            let iter_rules = rules
                .iter()
                .filter(|(r, _)| *r == "no-unordered-iteration")
                .count();
            assert_eq!(iter_rules, 1, "{file}: {rules:?}");
        }
        // The rest of the store keeps the Warn-level iteration scope.
        assert!(p
            .rules_for("crates/store/src/store.rs")
            .contains(&("no-unordered-iteration", Level::Warn)));
    }

    #[test]
    fn scoping_includes_and_excludes() {
        let p = Policy::default();
        let rules: Vec<&str> = p
            .rules_for("crates/serve/src/router.rs")
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert!(rules.contains(&"no-panic-path"));
        assert!(!rules.contains(&"lock-order"));
        assert!(p
            .rules_for("crates/serve/src/bin/certa_serve.rs")
            .is_empty());
        assert!(p
            .rules_for("crates/serve/src/wire/json.rs")
            .iter()
            .all(|(r, _)| *r != "no-float-format"));
        assert!(p.rules_for("crates/eval/src/report.rs").is_empty());
    }

    #[test]
    fn reactor_and_kernels_carry_deny_contracts() {
        let p = Policy::default();
        let reactor = p.rules_for("crates/serve/src/reactor.rs");
        assert!(reactor.contains(&("no-panic-path", Level::Deny)));
        assert!(reactor.contains(&("no-nondeterminism", Level::Deny)));
        let kernels = p.rules_for("crates/ml/src/kernels.rs");
        assert!(kernels.contains(&("no-panic-path", Level::Deny)));
        assert!(kernels.contains(&("no-nondeterminism", Level::Deny)));
        // The rest of certa-ml keeps determinism-only coverage.
        assert!(!p
            .rules_for("crates/ml/src/mlp.rs")
            .contains(&("no-panic-path", Level::Deny)));
    }

    #[test]
    fn serve_lock_owners_carry_the_lock_order_contract() {
        let p = Policy::default();
        for file in ["crates/serve/src/state.rs", "crates/serve/src/warm.rs"] {
            assert!(
                p.rules_for(file).contains(&("lock-order", Level::Deny)),
                "{file}"
            );
        }
    }

    #[test]
    fn prefix_needs_component_boundary() {
        assert!(matches("crates/serve/src/ops.rs", "crates/serve/src/"));
        assert!(!matches("crates/serve/srcfoo/ops.rs", "crates/serve/src/"));
        assert!(matches(
            "crates/models/src/cache.rs",
            "crates/models/src/cache.rs"
        ));
    }
}
