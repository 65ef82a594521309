//! gea-opt — equivalence-tested algebraic rewrites for single GQL commands.
//!
//! The thesis's contribution is an *algebra* over expression worlds, and
//! the toolkit executes every command literally through one engine. This
//! crate holds what the algebra lets a front end do *before* that engine
//! runs, without changing a byte of any reply (DESIGN.md, "Optimizer
//! note", has the history and what was retired):
//!
//! 1. [`rewrite_command`] recognises a `compare` of a GAP table with
//!    itself and returns a [`Step`] that `gea_server::optexec` serves
//!    without probing — the same reply rendering as the literal engine arm,
//!    so the output is byte-identical *by construction* and proven so by
//!    the rule audit;
//! 2. [`canonicalize_cmd`] maps algebraically-equal command spellings to one
//!    canonical form, and [`cache_key`] turns that form into the server's
//!    ResponseCache key, so equal-by-algebra commands share cached replies
//!    (including across sessions with equal corpus fingerprints).
//!
//! A command no rule matches runs through `gea_server::engine::execute`,
//! which is also the audit's reference. There is no batch planner: every
//! front end runs one command at a time, the same way.
//!
//! # The rule set is not hand-trusted
//!
//! Following the ruler approach (enumerate candidate rules, keep only those
//! an observational-equivalence oracle cannot refute), every rule in
//! [`RULES`] carries a [`RuleStatus`]:
//!
//! * [`RuleStatus::Shipped`] rules are applied by [`rewrite_command`] and
//!   must pass the audit (`gea::audit`, run by `tests/opt_audit.rs`):
//!   wire-level byte identity against literal engine execution over
//!   randomized corpora, for every shard × thread combination.
//! * [`RuleStatus::Tombstoned`] rules are *plausible-looking candidates the
//!   oracle refuted*. They are kept in-tree, with the refutation reason,
//!   and the audit proves they **still** fail — so a future "optimization"
//!   cannot resurrect one without tripping a test (the audit applies them
//!   on purpose for exactly that check).
//!
//! # Why the shipped rules are sound
//!
//! The soundness arguments live next to the rule constants below; each is
//! an observation about `gea-core`'s set operations (`setops.rs`) or name /
//! error discipline (`session.rs`), and each is re-verified empirically by
//! the audit rather than trusted.

use gea_check::gql::GqlCommand;
use gea_core::{CompareOp, CompareQuery};

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

/// Whether a candidate rewrite survived the observational-equivalence audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// The oracle could not refute the rule; [`rewrite_command`] applies it.
    Shipped,
    /// The oracle refuted the rule; it is never applied, but stays in-tree
    /// with the refutation so the audit can keep proving it wrong.
    Tombstoned {
        /// How the byte-identity oracle refuted the candidate.
        refuted_by: &'static str,
    },
}

/// One entry of the optimizer's rule registry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule name; recorded in lineage (`optimizer` param).
    pub name: &'static str,
    /// Shipped or tombstoned.
    pub status: RuleStatus,
    /// One-line statement of the rewrite.
    pub summary: &'static str,
}

/// `compare N G G union q` ≡ `compare N G G intersect q`.
///
/// Sound because `gap_union`'s second loop (second-only tags) adds nothing
/// when both operands are the same table, so the combined rows are exactly
/// `gap_intersect`'s; and `CompareQuery::applies_to` treats `Union` and
/// `Intersect` identically, so the applicability error fires the same way.
/// Doubles as the cache-key canonicalization: both spellings share one
/// ResponseCache slot for `check` pipelines.
pub const RULE_SELF_UNION: &str = "self-union-intersect";

/// `compare N G G intersect q` needs no probes: every tag matches itself.
///
/// Sound because `GapTable::new` asserts tag uniqueness, so `row_for` on the
/// same table always finds exactly the probing row; the combined table is
/// the input with its gap columns doubled.
pub const RULE_SELF_INTERSECT: &str = "self-intersect-double";

/// `compare N G G difference q` is always empty (keeping G's columns).
///
/// Sound because `gap_minus` keeps rows of the first operand whose tag is
/// absent from the second — and every tag occurs in itself.
pub const RULE_SELF_MINUS: &str = "self-minus-empty";

/// TOMBSTONE — `compare N G1 G2 op q` ≢ `compare N G2 G1 op q`.
///
/// Plausible because union/intersection are set-commutative over *tags*;
/// refuted because the combined table's columns are qualified per operand
/// (`{table}.{col}`, first operand's columns first), row order follows the
/// first operand, and queries 6–13 read "first" and "second" asymmetrically
/// — `show gap N` output diverges byte-for-byte.
pub const TOMB_COMMUTE_COMPARE: &str = "commute-compare-operands";

/// TOMBSTONE — dropping `compare N G G difference q` entirely.
///
/// Plausible because the result is provably empty ([`RULE_SELF_MINUS`]);
/// refuted because eliminating the command also eliminates the table: a
/// later `show gap N` answers rows under the rule's rewrite but
/// `ENOTFOUND` under the candidate, and `lineage` loses the node.
pub const TOMB_DROP_SELF_MINUS: &str = "drop-self-minus";

/// TOMBSTONE — hoisting selection above populate:
/// `populate P S D ; select X P L` → `select X D L ; populate P S X`.
///
/// Plausible as classic predicate pushdown; refuted because the two forms
/// compute different tables — `X` selects from `D` rather than from the
/// populated `P` (different "kept of total" reply), `P` populates over the
/// selected subset, and the lineage parents swap.
pub const TOMB_HOIST_SELECT: &str = "hoist-select-above-populate";

/// The full registry: shipped rules first, tombstones after.
pub const RULES: &[Rule] = &[
    Rule {
        name: RULE_SELF_UNION,
        status: RuleStatus::Shipped,
        summary: "compare N G G union q == compare N G G intersect q (exec fast path + cache-key unification)",
    },
    Rule {
        name: RULE_SELF_INTERSECT,
        status: RuleStatus::Shipped,
        summary: "self-intersection doubles each row's gap columns without probing",
    },
    Rule {
        name: RULE_SELF_MINUS,
        status: RuleStatus::Shipped,
        summary: "self-difference is the empty GAP table (first operand's columns)",
    },
    Rule {
        name: TOMB_COMMUTE_COMPARE,
        status: RuleStatus::Tombstoned {
            refuted_by: "qualified column names and row order follow the first operand; \
                         queries 6-13 are operand-asymmetric (show gap diverges)",
        },
        summary: "swap compare operands",
    },
    Rule {
        name: TOMB_DROP_SELF_MINUS,
        status: RuleStatus::Tombstoned {
            refuted_by: "the empty table is still a table: show/lineage on the result \
                         name diverge when the command is dropped",
        },
        summary: "eliminate provably-empty self-difference",
    },
    Rule {
        name: TOMB_HOIST_SELECT,
        status: RuleStatus::Tombstoned {
            refuted_by: "selection above populate reads a different source table; \
                         replies, results, and lineage parents all diverge",
        },
        summary: "push selection above populate",
    },
];

/// Look a rule up by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Names of all shipped (applied) rules.
pub fn shipped_rules() -> Vec<&'static str> {
    RULES
        .iter()
        .filter(|r| r.status == RuleStatus::Shipped)
        .map(|r| r.name)
        .collect()
}

/// Names of all tombstoned (refuted, never applied) rules.
pub fn tombstoned_rules() -> Vec<&'static str> {
    RULES
        .iter()
        .filter(|r| matches!(r.status, RuleStatus::Tombstoned { .. }))
        .map(|r| r.name)
        .collect()
}

// ---------------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------------

/// A rewritten command: what `gea_server::optexec::run_rewritten` executes
/// in place of the literal engine arm.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A self-operand `compare` served by the probe-free fast path
    /// ([`RULE_SELF_UNION`], [`RULE_SELF_INTERSECT`], [`RULE_SELF_MINUS`]).
    CompareSelf {
        /// Result GAP name.
        name: String,
        /// The (single) operand GAP.
        gap: String,
        /// The *original* operation — recorded as-written in lineage.
        op: CompareOp,
        /// The thesis query.
        query: CompareQuery,
        /// Which rule installed this step.
        rule: &'static str,
    },
}

/// Which shipped rule fired, for stats and the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// The shipped rule that fired.
    pub rule: &'static str,
    /// The caller's position for the rewritten command, echoed back.
    pub index: usize,
}

/// Rewrite a single command, if a shipped rule applies. Every front end
/// calls this on each parsed command and falls through to the literal
/// engine on `None`.
pub fn rewrite_command(index: usize, cmd: &GqlCommand) -> Option<(Step, Rewrite)> {
    match cmd {
        GqlCommand::Compare {
            name,
            g1,
            g2,
            op,
            query,
        } if g1 == g2 => {
            let rule = match op {
                CompareOp::Union => RULE_SELF_UNION,
                CompareOp::Intersect => RULE_SELF_INTERSECT,
                CompareOp::Difference => RULE_SELF_MINUS,
            };
            Some((
                Step::CompareSelf {
                    name: name.clone(),
                    gap: g1.clone(),
                    op: *op,
                    query: *query,
                    rule,
                },
                Rewrite { rule, index },
            ))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Canonicalization / cache keys
// ---------------------------------------------------------------------------

/// Map a command to its algebraic canonical form. Today's only spelling
/// merge is [`RULE_SELF_UNION`] (`union` of a table with itself becomes
/// `intersect`), applied recursively through `check` pipelines. The result
/// is a fixpoint: canonicalizing twice changes nothing.
pub fn canonicalize_cmd(cmd: &GqlCommand) -> GqlCommand {
    match cmd {
        GqlCommand::Compare {
            name,
            g1,
            g2,
            op: CompareOp::Union,
            query,
        } if g1 == g2 => GqlCommand::Compare {
            name: name.clone(),
            g1: g1.clone(),
            g2: g2.clone(),
            op: CompareOp::Intersect,
            query: *query,
        },
        GqlCommand::Check(cmds) => GqlCommand::Check(cmds.iter().map(canonicalize_cmd).collect()),
        other => other.clone(),
    }
}

/// Whether [`canonicalize_cmd`] changes `cmd`: it contains a self-operand
/// `compare … union`, directly or inside a `check` pipeline.
fn merges_spelling(cmd: &GqlCommand) -> bool {
    match cmd {
        GqlCommand::Compare {
            g1,
            g2,
            op: CompareOp::Union,
            ..
        } => g1 == g2,
        GqlCommand::Check(cmds) => cmds.iter().any(merges_spelling),
        _ => false,
    }
}

/// [`cache_key`], plus whether canonicalization merged a spelling (the
/// server's `opt_key_unified` counter). The key is rendered once, and a
/// command with nothing to merge is not cloned first.
pub fn cache_key_unified(cmd: &GqlCommand) -> (String, bool) {
    if merges_spelling(cmd) {
        (canonicalize_cmd(cmd).canonical(), true)
    } else {
        (cmd.canonical(), false)
    }
}

/// The ResponseCache key of a command: the canonical spelling of its
/// algebraic canonical form. Algebraically-equal commands (for which the
/// audit proves byte-identical replies) share one cache slot.
pub fn cache_key(cmd: &GqlCommand) -> String {
    cache_key_unified(cmd).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_check::gql::{parse, Request};

    fn cmd(line: &str) -> GqlCommand {
        match parse(line).unwrap().unwrap() {
            Request::Gql(c) => c,
            other => panic!("{line} parsed to {other:?}"),
        }
    }

    #[test]
    fn registry_has_shipped_and_tombstoned_rules() {
        assert_eq!(shipped_rules().len(), 3);
        assert_eq!(tombstoned_rules().len(), 3);
        for r in RULES {
            assert!(rule(r.name).is_some());
        }
        assert!(rule("no-such-rule").is_none());
    }

    #[test]
    fn self_compare_commands_are_rewritten() {
        for (line, want) in [
            ("compare c g g union 2", RULE_SELF_UNION),
            ("compare c g g intersect 5", RULE_SELF_INTERSECT),
            ("compare c g g difference 4", RULE_SELF_MINUS),
        ] {
            let (step, rw) = rewrite_command(0, &cmd(line)).expect(line);
            assert_eq!(rw.rule, want, "{line}");
            let Step::CompareSelf { rule, .. } = step;
            assert_eq!(rule, want);
        }
        // Distinct operands: no rule.
        assert!(rewrite_command(0, &cmd("compare c g1 g2 union 2")).is_none());
        // Non-compare commands: no rule.
        assert!(rewrite_command(0, &cmd("tissues")).is_none());
    }

    #[test]
    fn canonicalize_merges_self_union_into_intersect() {
        let canon = canonicalize_cmd(&cmd("compare c g g union 2"));
        assert_eq!(canon, cmd("compare c g g intersect 2"));
        // Distinct operands keep their op.
        let keep = cmd("compare c g1 g2 union 2");
        assert_eq!(canonicalize_cmd(&keep), keep);
        // Difference is never touched.
        let keep = cmd("compare c g g difference 4");
        assert_eq!(canonicalize_cmd(&keep), keep);
    }

    #[test]
    fn canonicalize_recurses_through_check_pipelines() {
        let c = cmd("check compare c g g union 2 ; lineage");
        let canon = canonicalize_cmd(&c);
        assert_eq!(canon, cmd("check compare c g g intersect 2 ; lineage"));
        // The cache key unifies the two spellings.
        assert_eq!(
            cache_key(&c),
            cache_key(&cmd("check compare c g g intersect 2 ; lineage"))
        );
        assert_ne!(
            cache_key(&cmd("check compare c g1 g2 union 2")),
            cache_key(&cmd("check compare c g1 g2 intersect 2"))
        );
    }

    #[test]
    fn canonicalize_is_a_fixpoint() {
        for line in [
            "compare c g g union 13",
            "compare c g g intersect 1",
            "compare c a b difference 4",
            "check compare c g g union 2 ; show gap c",
            "tissues",
            "gap g s1 s2",
        ] {
            let once = canonicalize_cmd(&cmd(line));
            assert_eq!(canonicalize_cmd(&once), once, "{line}");
            assert_eq!(cache_key(&once), cache_key(&cmd(line)), "{line}");
            // The structural test agrees with "canonicalization changed it".
            let (key, unified) = cache_key_unified(&cmd(line));
            assert_eq!(key, once.canonical(), "{line}");
            assert_eq!(unified, once != cmd(line), "{line}");
            assert!(!cache_key_unified(&once).1, "{line}");
        }
    }
}
