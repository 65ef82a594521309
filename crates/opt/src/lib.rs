//! gea-opt — an equivalence-tested algebraic optimizer for GQL pipelines.
//!
//! The thesis's contribution is an *algebra* over expression worlds, yet the
//! toolkit executes every pipeline literally. This crate adds the missing
//! rewrite pass between `gea-check` (which owns the grammar and the symbol /
//! world tables) and execution:
//!
//! 1. a pipeline of parsed [`GqlCommand`]s is lowered into a [`Plan`] — a
//!    sequence of [`Step`]s where algebraically-rewritable commands become
//!    dedicated fast-path steps and adjacent fusable pairs become one step;
//! 2. [`canonicalize_cmd`] maps algebraically-equal command spellings to one
//!    canonical form, and [`cache_key`] turns that form into the server's
//!    ResponseCache key, so equal-by-algebra commands share cached replies
//!    (including across sessions with equal corpus fingerprints);
//! 3. the optimized form is executed by `gea_server::optexec`, which reuses
//!    the engine's reply rendering so optimized output is byte-identical to
//!    literal execution *by construction* — and proven so by the rule audit.
//!
//! # The rule set is not hand-trusted
//!
//! Following the ruler approach (enumerate candidate rules, keep only those
//! an observational-equivalence oracle cannot refute), every rule in
//! [`RULES`] carries a [`RuleStatus`]:
//!
//! * [`RuleStatus::Shipped`] rules are applied by [`optimize`] and must pass
//!   the audit in `tests/opt_audit.rs`: wire-level byte identity against
//!   unoptimized serial execution over randomized corpora, for every shard ×
//!   thread combination.
//! * [`RuleStatus::Tombstoned`] rules are *plausible-looking candidates the
//!   oracle refuted*. They are kept in-tree, with the refutation reason,
//!   and the audit proves they **still** fail — so a future "optimization"
//!   cannot resurrect one without tripping a test. [`audit::apply_tombstone`]
//!   applies them on purpose for exactly that check.
//!
//! # Why the shipped rules are sound
//!
//! The soundness arguments live next to the rule constants below; each is
//! an observation about `gea-core`'s set operations (`setops.rs`) or name /
//! error discipline (`session.rs`), and each is re-verified empirically by
//! the audit rather than trusted.

use gea_check::gql::GqlCommand;
use gea_check::SymbolSeed;
use gea_core::{CompareOp, CompareQuery};

pub mod audit;

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

/// Whether a candidate rewrite survived the observational-equivalence audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// The oracle could not refute the rule; [`optimize`] applies it.
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
    /// Stable rule name; recorded in lineage (`optimizer` param) and in the
    /// `--plan` output.
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

/// Adjacent `gap G A B ; topgap G x` planned as one fused step: the top-`x`
/// derivation reads the diff still in hand instead of re-validating and
/// re-looking-up the just-created table.
pub const RULE_FUSE_GAP_TOPGAP: &str = "fuse-gap-topgap";

/// Adjacent `populate P S D ; select X P libs` planned as one fused step:
/// the selection runs against the just-populated table without an
/// intermediate re-validation round.
pub const RULE_FUSE_POPULATE_SELECT: &str = "fuse-populate-select";

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
        name: RULE_FUSE_GAP_TOPGAP,
        status: RuleStatus::Shipped,
        summary: "fuse adjacent gap G A B ; topgap G x into one diff+top step",
    },
    Rule {
        name: RULE_FUSE_POPULATE_SELECT,
        status: RuleStatus::Shipped,
        summary: "fuse adjacent populate P S D ; select X P libs into one step",
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
// Plan IR
// ---------------------------------------------------------------------------

/// One unit of optimized execution. Indices refer back to the source
/// pipeline's command positions so front ends can attribute replies and
/// errors to original lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute the command literally (no rule applied).
    Exec {
        /// Position in the source pipeline.
        index: usize,
        /// The unmodified command.
        cmd: GqlCommand,
    },
    /// A self-operand `compare` served by the probe-free fast path
    /// ([`RULE_SELF_UNION`], [`RULE_SELF_INTERSECT`], [`RULE_SELF_MINUS`]).
    CompareSelf {
        /// Position in the source pipeline.
        index: usize,
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
    /// Fused `gap name s1 s2 ; topgap name x` ([`RULE_FUSE_GAP_TOPGAP`]).
    FusedGapTopGap {
        /// Position of the `gap` command.
        gap_index: usize,
        /// Position of the `topgap` command.
        top_index: usize,
        /// The GAP name (also the topgap source).
        name: String,
        /// First SUMY operand.
        sumy1: String,
        /// Second SUMY operand.
        sumy2: String,
        /// Top row count.
        x: usize,
        /// Which rule installed this step.
        rule: &'static str,
    },
    /// Fused `populate name sumy dataset ; select select_name name libs`
    /// ([`RULE_FUSE_POPULATE_SELECT`]).
    FusedPopulateSelect {
        /// Position of the `populate` command.
        populate_index: usize,
        /// Position of the `select` command.
        select_index: usize,
        /// The populated ENUM name (also the selection source).
        name: String,
        /// The SUMY whose intensional definition drives populate.
        sumy: String,
        /// The dataset populate scans.
        dataset: String,
        /// The selection's output name.
        select_name: String,
        /// Libraries the selection keeps.
        libraries: Vec<String>,
        /// Which rule installed this step.
        rule: &'static str,
    },
}

impl Step {
    /// Source-pipeline positions this step covers, in execution order.
    pub fn indices(&self) -> Vec<usize> {
        match self {
            Step::Exec { index, .. } | Step::CompareSelf { index, .. } => vec![*index],
            Step::FusedGapTopGap {
                gap_index,
                top_index,
                ..
            } => vec![*gap_index, *top_index],
            Step::FusedPopulateSelect {
                populate_index,
                select_index,
                ..
            } => vec![*populate_index, *select_index],
        }
    }
}

/// A rewrite the planner applied, for `--plan` output, lineage, and stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// The shipped rule that fired.
    pub rule: &'static str,
    /// Source position of the (first) rewritten command.
    pub index: usize,
    /// Human-readable description of what changed.
    pub detail: String,
}

/// An optimized pipeline: steps in source order plus the rewrites applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Execution steps, covering every source command exactly once.
    pub steps: Vec<Step>,
    /// Rewrites applied, in source order.
    pub rewrites: Vec<Rewrite>,
}

impl Plan {
    /// The no-rewrite plan: every command executed literally.
    pub fn identity(cmds: &[GqlCommand]) -> Plan {
        Plan {
            steps: cmds
                .iter()
                .enumerate()
                .map(|(index, cmd)| Step::Exec {
                    index,
                    cmd: cmd.clone(),
                })
                .collect(),
            rewrites: Vec::new(),
        }
    }

    /// Whether no rule fired.
    pub fn is_identity(&self) -> bool {
        self.rewrites.is_empty()
    }

    /// Number of source commands the plan covers.
    pub fn n_commands(&self) -> usize {
        self.steps.iter().map(|s| s.indices().len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Rewrite a single command, if a shipped single-command rule applies.
///
/// This is the server's entry point: the wire protocol executes one command
/// per request, so only non-fusing rules can fire there.
pub fn rewrite_command(index: usize, cmd: &GqlCommand) -> Option<(Step, Rewrite)> {
    match cmd {
        GqlCommand::Compare {
            name,
            g1,
            g2,
            op,
            query,
        } if g1 == g2 => {
            let (rule, detail) = match op {
                CompareOp::Union => (
                    RULE_SELF_UNION,
                    format!("compare {name}: union of {g1} with itself == intersect; probe-free fast path"),
                ),
                CompareOp::Intersect => (
                    RULE_SELF_INTERSECT,
                    format!("compare {name}: intersect of {g1} with itself; probe-free fast path"),
                ),
                CompareOp::Difference => (
                    RULE_SELF_MINUS,
                    format!("compare {name}: difference of {g1} with itself is empty"),
                ),
            };
            Some((
                Step::CompareSelf {
                    index,
                    name: name.clone(),
                    gap: g1.clone(),
                    op: *op,
                    query: *query,
                    rule,
                },
                Rewrite {
                    rule,
                    index,
                    detail,
                },
            ))
        }
        _ => None,
    }
}

/// Lower a pipeline into an optimized [`Plan`], applying every shipped rule
/// syntactically. Fusions consume adjacent pairs; single-command rewrites
/// apply everywhere else. Soundness does not depend on name resolution (all
/// error paths are replicated by the fast paths), so no symbol context is
/// needed here; [`optimize_checked`] adds the world-table guard.
pub fn optimize(cmds: &[GqlCommand]) -> Plan {
    let mut steps = Vec::with_capacity(cmds.len());
    let mut rewrites = Vec::new();
    let mut i = 0;
    while i < cmds.len() {
        if i + 1 < cmds.len() {
            if let (
                GqlCommand::Gap { name, sumy1, sumy2 },
                GqlCommand::TopGap { gap: top_src, x },
            ) = (&cmds[i], &cmds[i + 1])
            {
                if top_src == name {
                    rewrites.push(Rewrite {
                        rule: RULE_FUSE_GAP_TOPGAP,
                        index: i,
                        detail: format!(
                            "gap {name} + topgap {name} {x}: diff and top-{x} derived in one step"
                        ),
                    });
                    steps.push(Step::FusedGapTopGap {
                        gap_index: i,
                        top_index: i + 1,
                        name: name.clone(),
                        sumy1: sumy1.clone(),
                        sumy2: sumy2.clone(),
                        x: *x,
                        rule: RULE_FUSE_GAP_TOPGAP,
                    });
                    i += 2;
                    continue;
                }
            }
            if let (
                GqlCommand::Populate {
                    name,
                    from: Some((sumy, dataset)),
                },
                GqlCommand::Select {
                    name: select_name,
                    dataset: select_src,
                    libraries,
                },
            ) = (&cmds[i], &cmds[i + 1])
            {
                if select_src == name {
                    rewrites.push(Rewrite {
                        rule: RULE_FUSE_POPULATE_SELECT,
                        index: i,
                        detail: format!(
                            "populate {name} + select {select_name}: selection fused onto the populated table"
                        ),
                    });
                    steps.push(Step::FusedPopulateSelect {
                        populate_index: i,
                        select_index: i + 1,
                        name: name.clone(),
                        sumy: sumy.clone(),
                        dataset: dataset.clone(),
                        select_name: select_name.clone(),
                        libraries: libraries.clone(),
                        rule: RULE_FUSE_POPULATE_SELECT,
                    });
                    i += 2;
                    continue;
                }
            }
        }
        match rewrite_command(i, &cmds[i]) {
            Some((step, rewrite)) => {
                steps.push(step);
                rewrites.push(rewrite);
            }
            None => steps.push(Step::Exec {
                index: i,
                cmd: cmds[i].clone(),
            }),
        }
        i += 1;
    }
    Plan { steps, rewrites }
}

/// [`optimize`] behind gea-check's world-table guard: the pipeline is first
/// validated against `seed` (a live session's symbol population); if the
/// analyzer reports any error the identity plan is returned, so a
/// statically-broken script executes — and fails — exactly as written.
pub fn optimize_checked(seed: &SymbolSeed, cmds: &[GqlCommand]) -> Plan {
    if !gea_check::check_pipeline(seed, cmds).is_clean() {
        return Plan::identity(cmds);
    }
    optimize(cmds)
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

/// The ResponseCache key of a command: the canonical spelling of its
/// algebraic canonical form. Algebraically-equal commands (for which the
/// audit proves byte-identical replies) share one cache slot.
pub fn cache_key(cmd: &GqlCommand) -> String {
    canonicalize_cmd(cmd).canonical()
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

    fn cmds(lines: &[&str]) -> Vec<GqlCommand> {
        lines.iter().map(|l| cmd(l)).collect()
    }

    #[test]
    fn registry_has_shipped_and_tombstoned_rules() {
        assert_eq!(shipped_rules().len(), 5);
        assert!(tombstoned_rules().len() >= 3);
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
            match step {
                Step::CompareSelf { rule, .. } => assert_eq!(rule, want),
                other => panic!("{line} planned as {other:?}"),
            }
        }
        // Distinct operands: no rule.
        assert!(rewrite_command(0, &cmd("compare c g1 g2 union 2")).is_none());
        // Non-compare commands: no rule.
        assert!(rewrite_command(0, &cmd("tissues")).is_none());
    }

    #[test]
    fn adjacent_pairs_fuse_and_keep_indices() {
        let plan = optimize(&cmds(&[
            "dataset Eb brain",
            "gap g s1 s2",
            "topgap g 5",
            "populate P S Eb",
            "select X P libA libB",
        ]));
        assert_eq!(plan.rewrites.len(), 2);
        assert_eq!(plan.n_commands(), 5);
        assert!(matches!(
            &plan.steps[1],
            Step::FusedGapTopGap {
                gap_index: 1,
                top_index: 2,
                x: 5,
                ..
            }
        ));
        assert!(matches!(
            &plan.steps[2],
            Step::FusedPopulateSelect {
                populate_index: 3,
                select_index: 4,
                ..
            }
        ));
        // Every index covered exactly once, in order.
        let covered: Vec<usize> = plan.steps.iter().flat_map(|s| s.indices()).collect();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn non_adjacent_or_mismatched_pairs_do_not_fuse() {
        // topgap names a different gap.
        let plan = optimize(&cmds(&["gap g s1 s2", "topgap other 5"]));
        assert!(plan.is_identity());
        // select reads a different source: no fusion, and a standalone
        // populate is executed literally.
        let plan = optimize(&cmds(&["populate P S D", "select X D libA"]));
        assert!(plan.is_identity());
        assert!(rewrite_command(0, &cmd("populate P S D")).is_none());
        // a command between breaks adjacency.
        let plan = optimize(&cmds(&["gap g s1 s2", "tissues", "topgap g 5"]));
        assert!(plan.is_identity());
        // lineage-repopulate form (no from-clause) never fuses with select.
        let plan = optimize(&cmds(&["populate P", "select X P libA"]));
        assert!(plan.is_identity());
    }

    #[test]
    fn identity_plan_covers_everything_unchanged() {
        let src = cmds(&["tissues", "dataset Eb brain", "lineage"]);
        let plan = Plan::identity(&src);
        assert!(plan.is_identity());
        assert_eq!(plan.n_commands(), 3);
        for (i, step) in plan.steps.iter().enumerate() {
            match step {
                Step::Exec { index, cmd } => {
                    assert_eq!(*index, i);
                    assert_eq!(cmd, &src[i]);
                }
                other => panic!("identity plan contains {other:?}"),
            }
        }
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
        }
    }

    #[test]
    fn checked_optimize_falls_back_to_identity_on_static_errors() {
        let seed = SymbolSeed::default();
        // `gap` over undefined SUMYs is a static error under an empty seed:
        // the guard must refuse to fuse.
        let src = cmds(&["gap g s1 s2", "topgap g 5"]);
        let plan = optimize_checked(&seed, &src);
        assert!(plan.is_identity());
    }
}
