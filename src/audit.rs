//! The `gea-opt` rule audit: shape enumeration, tombstone application and
//! the observational-equivalence oracle, in one module with two thin
//! callers (`tests/opt_audit.rs` and the `gea-opt-audit` bin).
//!
//! The ruler recipe, adapted to GQL: enumerate small term shapes, execute
//! each pipeline twice — through [`engine::execute`] alone on a serial
//! session (the reference: the literal engine, which also runs every
//! command no rule matches), and the way every front end runs it
//! ([`optexec::execute`]: `gea_opt::rewrite_command`, then the rewritten
//! step or the engine) on a sharded one — and demand **byte identity at
//! the wire level**: every per-command reply (including errors, which
//! render as `ERR <CODE> <message>`) plus the post-run `lineage` view of
//! the world. Shipped rules must survive the oracle on every point of the
//! shards × threads grid; tombstoned candidates must be *rejected* by the
//! same oracle when applied on purpose ([`audit_tombstones`]).
//!
//! Two tiers:
//!
//! * **kick-tires** (the default `#[test]` battery and `scripts/ci.sh`):
//!   one corpus seed, the kick-tires query subset, the full grid;
//! * **full** (`GEA_OPT_AUDIT=full`, `scripts/ci-nightly.sh`, and the
//!   `gea-opt-audit` bin): three seeds × all 13 thesis queries.

use std::collections::BTreeSet;

use gea_core::session::{ExecConfig, GeaSession};
use gea_core::{CompareOp, CompareQuery};
use gea_opt::{TOMB_COMMUTE_COMPARE, TOMB_DROP_SELF_MINUS, TOMB_HOIST_SELECT};
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::gql::{self, GqlCommand, Request};
use gea_server::{engine, optexec, EngineError};

/// The audit grid: shards {1, 2, 3, 7} × threads {1, 4}. Shipped
/// execution must match the serial reference on every point.
pub const AUDIT_GRID: &[(usize, usize)] = &[
    (1, 1),
    (2, 1),
    (3, 1),
    (7, 1),
    (1, 4),
    (2, 4),
    (3, 4),
    (7, 4),
];

/// Query numbers exercised by the kick-tires audit tier: one per
/// `matches()` equivalence class that is applicable to every op (1, 2, 5)
/// plus one union/intersect-only query (7) to hit the applicability error
/// path under `difference`.
pub const KICK_TIRES_QUERIES: &[usize] = &[1, 2, 5, 7];

/// Whether the environment requests the full tier (`GEA_OPT_AUDIT=full`).
pub fn full_tier() -> bool {
    std::env::var("GEA_OPT_AUDIT")
        .map(|v| v == "full")
        .unwrap_or(false)
}

/// Corpus seeds for a tier — the randomized-corpora axis of the oracle.
pub fn audit_seeds(full: bool) -> &'static [u64] {
    if full {
        &[42, 7, 2026]
    } else {
        &[42]
    }
}

/// The query numbers for an audit tier: the kick-tires subset, or all 13.
pub fn audit_queries(full: bool) -> Vec<usize> {
    if full {
        (1..=13).collect()
    } else {
        KICK_TIRES_QUERIES.to_vec()
    }
}

/// Thesis query by menu number (1–13).
pub fn query_by_number(n: usize) -> CompareQuery {
    CompareQuery::ALL[n - 1]
}

/// Open a demo-corpus session with an explicit executor geometry.
pub fn open_session(seed: u64, shards: usize, threads: usize) -> GeaSession {
    let (corpus, _) = generate(&GeneratorConfig::demo(seed));
    let mut session = GeaSession::open(corpus, &CleaningConfig::default()).expect("demo session");
    session.set_exec_config(ExecConfig { threads, shards });
    session
}

fn parse_one(line: &str) -> GqlCommand {
    match gql::parse(line).expect("parse").expect("non-empty") {
        Request::Gql(cmd) => cmd,
        other => panic!("{line}: not a GQL command: {other:?}"),
    }
}

/// Parse a script fragment into commands (panics on parse errors — audit
/// pipelines are authored here, not user input).
pub fn parse_lines(lines: &[&str]) -> Vec<GqlCommand> {
    lines.iter().map(|l| parse_one(l)).collect()
}

/// Every library name of the session's root data set, for `select` shapes.
pub fn library_names(session: &GeaSession) -> Vec<String> {
    session
        .source()
        .libraries()
        .iter()
        .map(|m| m.name.clone())
        .collect()
}

/// Enumerate every self-compare shape over one GAP table: all three ops ×
/// the tier's queries, each writing to a fresh `{prefix}_{op}{q}` name.
/// Inapplicable (op, query) pairs are included on purpose — the fast path
/// must reproduce the `EQUERY` error byte-for-byte too.
pub fn enumerate_self_compares(gap: &str, prefix: &str, full: bool) -> Vec<GqlCommand> {
    let mut out = Vec::new();
    for (op_name, op) in [
        ("u", CompareOp::Union),
        ("i", CompareOp::Intersect),
        ("d", CompareOp::Difference),
    ] {
        for q in audit_queries(full) {
            out.push(GqlCommand::Compare {
                name: format!("{prefix}_{op_name}{q}"),
                g1: gap.to_string(),
                g2: gap.to_string(),
                op,
                query: query_by_number(q),
            });
        }
    }
    out
}

/// The case-study prelude every audit pipeline starts from: brain data
/// set, one mine, groups of the first fascicle, two GAP tables.
pub fn prelude() -> Vec<GqlCommand> {
    parse_lines(&[
        "dataset Eb brain",
        "mine Eb f 50 3 6",
        "groups f_1",
        "gap ga f_1CancerFasTbl f_1NormalTable",
        "gap gb f_1CancerFasTbl f_1CanNotInFasTbl",
    ])
}

/// The shipped-rule audit pipeline: the prelude, the full self-compare
/// shape enumeration over both GAP tables (success *and* error shapes —
/// self-union/intersect error at materialization, `difference 7` errors at
/// applicability), a world probe on a rewritten result, and a scatterable
/// pair no rule touches, which the shipped side must leave to the engine
/// on every grid point.
pub fn shipped_pipeline(all_libraries: &[String], full: bool) -> Vec<GqlCommand> {
    let mut cmds = prelude();
    cmds.extend(enumerate_self_compares("ga", "ca", full));
    cmds.extend(enumerate_self_compares("gb", "cb", full));
    let select = format!("select X P {}", all_libraries.join(" "));
    cmds.extend(parse_lines(&[
        "show gap ca_d1 3",
        "populate P f_1CancerFasTbl Eb",
        &select,
    ]));
    cmds
}

/// The tombstone audit pipeline: one instance of every tombstoned rule's
/// pattern, each followed by a probe that surfaces the divergence.
pub fn tombstone_pipeline(all_libraries: &[String]) -> Vec<GqlCommand> {
    let mut cmds = prelude();
    let select = format!("select X P {}", all_libraries.join(" "));
    cmds.extend(parse_lines(&[
        // commute-compare-operands: operand order decides qualified
        // column names and row order (query 7 is operand-asymmetric).
        "compare cc ga gb union 7",
        "show gap cc 5",
        // drop-self-minus: the result is empty but *exists* — show and
        // lineage diverge when it is dropped.
        "compare cd ga ga difference 4",
        "show gap cd 3",
        // hoist-select-above-populate: the populate reply names its
        // source data set, and hoisting changes it.
        "populate P f_1CancerFasTbl Eb",
        &select,
    ]));
    cmds
}

/// Apply a tombstoned rule *on purpose*, so the oracle can prove it wrong.
///
/// Returns the transformed pipeline, or `None` when the rule's pattern does
/// not occur. The transformation is the rewrite the tombstone would have
/// performed had it shipped:
///
/// * [`TOMB_COMMUTE_COMPARE`] swaps the operands of every two-operand
///   `compare`;
/// * [`TOMB_DROP_SELF_MINUS`] deletes every `compare N G G difference q`;
/// * [`TOMB_HOIST_SELECT`] rewrites `populate P S D ; select X P L` into
///   `select X D L ; populate P S X` (selection hoisted above populate).
pub fn apply_tombstone(rule: &str, cmds: &[GqlCommand]) -> Option<Vec<GqlCommand>> {
    let mut out: Vec<GqlCommand> = Vec::with_capacity(cmds.len());
    let mut applied = false;
    match rule {
        TOMB_COMMUTE_COMPARE => {
            for c in cmds {
                match c {
                    GqlCommand::Compare {
                        name,
                        g1,
                        g2,
                        op,
                        query,
                    } if g1 != g2 => {
                        applied = true;
                        out.push(GqlCommand::Compare {
                            name: name.clone(),
                            g1: g2.clone(),
                            g2: g1.clone(),
                            op: *op,
                            query: *query,
                        });
                    }
                    other => out.push(other.clone()),
                }
            }
        }
        TOMB_DROP_SELF_MINUS => {
            for c in cmds {
                match c {
                    GqlCommand::Compare {
                        g1,
                        g2,
                        op: CompareOp::Difference,
                        ..
                    } if g1 == g2 => applied = true,
                    other => out.push(other.clone()),
                }
            }
        }
        TOMB_HOIST_SELECT => {
            let mut i = 0;
            while i < cmds.len() {
                if i + 1 < cmds.len() {
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
                            applied = true;
                            out.push(GqlCommand::Select {
                                name: select_name.clone(),
                                dataset: dataset.clone(),
                                libraries: libraries.clone(),
                            });
                            out.push(GqlCommand::Populate {
                                name: name.clone(),
                                from: Some((sumy.clone(), select_name.clone())),
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
                out.push(cmds[i].clone());
                i += 1;
            }
        }
        _ => return None,
    }
    applied.then_some(out)
}

/// How a command reaches a session: [`engine::execute`] for the reference,
/// [`optexec::execute`] for what ships.
type Executor = fn(&mut GeaSession, &GqlCommand) -> Result<String, EngineError>;

/// Run a pipeline one command at a time, continue-on-error (the
/// REPL/server mode), and render outcomes the way the wire does: the
/// reply payload, or a single `ERR <CODE> <message>` line, tagged with the
/// command's index.
pub fn transcript(session: &mut GeaSession, cmds: &[GqlCommand], run: Executor) -> Vec<String> {
    cmds.iter()
        .enumerate()
        .map(|(i, cmd)| match run(session, cmd) {
            Ok(reply) => format!("{i} OK {reply}"),
            Err(e) => format!("{i} ERR {} {}", e.code, e.message),
        })
        .collect()
}

/// The stats-visible world state after a run: the full lineage view.
pub fn world_digest(session: &GeaSession) -> String {
    engine::execute_read(session, &parse_one("lineage"))
        .unwrap_or_else(|e| format!("ERR {} {}", e.code, e.message))
}

/// What one [`audit_shipped`] run covered, and every divergence it found.
#[derive(Debug)]
pub struct AuditReport {
    /// Grid points × seeds executed on the shipped side.
    pub configs: usize,
    /// Commands per audit pipeline.
    pub pipeline_len: usize,
    /// Commands a shipped rule rewrote, summed over seeds.
    pub rewrites: usize,
    /// Every rule that fired at least once.
    pub rules_fired: BTreeSet<&'static str>,
    /// Human-readable divergence descriptions; empty means the audit
    /// passed.
    pub divergences: Vec<String>,
}

impl AuditReport {
    /// Shipped rules that never fired: the audit would be vacuous for them.
    pub fn silent_rules(&self) -> Vec<&'static str> {
        gea_opt::shipped_rules()
            .into_iter()
            .filter(|r| !self.rules_fired.contains(r))
            .collect()
    }
}

fn first_diff(want: &[String], got: &[String]) -> String {
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return format!("at {i}: engine {w:?} vs shipped {g:?}");
        }
    }
    format!("length {} vs {}", want.len(), got.len())
}

/// Run the shipped-rule audit for a tier: the engine reference once per
/// seed, the shipped path on every grid point, byte identity demanded for
/// the wire transcript and the lineage digest.
pub fn audit_shipped(full: bool) -> AuditReport {
    let mut report = AuditReport {
        configs: 0,
        pipeline_len: 0,
        rewrites: 0,
        rules_fired: BTreeSet::new(),
        divergences: Vec::new(),
    };
    for &seed in audit_seeds(full) {
        let mut plain = open_session(seed, 1, 1);
        let cmds = shipped_pipeline(&library_names(&plain), full);
        report.pipeline_len = cmds.len();
        let want_wire = transcript(&mut plain, &cmds, engine::execute);
        let want_world = world_digest(&plain);

        for (i, cmd) in cmds.iter().enumerate() {
            if let Some((_, rewrite)) = gea_opt::rewrite_command(i, cmd) {
                report.rewrites += 1;
                report.rules_fired.insert(rewrite.rule);
            }
        }

        for &(shards, threads) in AUDIT_GRID {
            let mut shipped = open_session(seed, shards, threads);
            let got_wire = transcript(&mut shipped, &cmds, optexec::execute);
            let got_world = world_digest(&shipped);
            report.configs += 1;
            if want_wire != got_wire {
                report.divergences.push(format!(
                    "seed {seed} shards {shards} threads {threads}: wire diverged {}",
                    first_diff(&want_wire, &got_wire)
                ));
            }
            if want_world != got_world {
                report.divergences.push(format!(
                    "seed {seed} shards {shards} threads {threads}: lineage diverged"
                ));
            }
        }
    }
    report
}

/// Prove every tombstoned rule *stays* refuted: apply it on purpose and
/// demand the mutated pipeline is observationally distinguishable from
/// the original under the engine alone. Returns failure descriptions — a
/// tombstone whose mutation went unnoticed would be eligible to ship,
/// which is exactly what the tombstone exists to prevent.
pub fn audit_tombstones() -> Vec<String> {
    let mut failures = Vec::new();
    let mut base_session = open_session(42, 1, 1);
    let base = tombstone_pipeline(&library_names(&base_session));
    let want_wire = transcript(&mut base_session, &base, engine::execute);
    let want_world = world_digest(&base_session);
    for rule in gea_opt::tombstoned_rules() {
        let Some(mutated) = apply_tombstone(rule, &base) else {
            failures.push(format!("{rule}: pattern missing from the audit pipeline"));
            continue;
        };
        let mut session = open_session(42, 1, 1);
        let got_wire = transcript(&mut session, &mutated, engine::execute);
        let got_world = world_digest(&session);
        if want_wire == got_wire && want_world == got_world {
            failures.push(format!(
                "{rule}: mutated pipeline is observationally equivalent — the oracle would ship it"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_enumeration_scales_with_tier() {
        let kick = enumerate_self_compares("g", "k", false);
        let full = enumerate_self_compares("g", "f", true);
        assert_eq!(kick.len(), 3 * KICK_TIRES_QUERIES.len());
        assert_eq!(full.len(), 3 * 13);
        // Fresh result names, no collisions.
        let names: BTreeSet<_> = full
            .iter()
            .map(|c| match c {
                GqlCommand::Compare { name, .. } => name.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names.len(), full.len());
    }

    #[test]
    fn tombstones_apply_their_documented_transformations() {
        let swap = apply_tombstone(
            TOMB_COMMUTE_COMPARE,
            &parse_lines(&["compare c a b union 7"]),
        )
        .unwrap();
        assert_eq!(swap, parse_lines(&["compare c b a union 7"]));

        let dropped = apply_tombstone(
            TOMB_DROP_SELF_MINUS,
            &parse_lines(&["tissues", "compare c g g difference 4"]),
        )
        .unwrap();
        assert_eq!(dropped, vec![GqlCommand::Tissues]);

        let hoisted = apply_tombstone(
            TOMB_HOIST_SELECT,
            &parse_lines(&["populate P S D", "select X P l1"]),
        )
        .unwrap();
        assert_eq!(hoisted, parse_lines(&["select X D l1", "populate P S X"]));
    }

    #[test]
    fn tombstones_without_a_matching_pattern_return_none() {
        assert!(apply_tombstone(TOMB_COMMUTE_COMPARE, &[GqlCommand::Tissues]).is_none());
        assert!(apply_tombstone("not-a-rule", &[GqlCommand::Tissues]).is_none());
    }
}
