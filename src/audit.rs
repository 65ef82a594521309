//! Observational-equivalence oracle for the `gea-opt` rule audit.
//!
//! The ruler recipe, adapted to GQL: enumerate small term shapes
//! ([`gea_opt::audit`]), execute each pipeline twice — literally on a
//! serial session, and through [`gea_opt::optimize`] +
//! [`optexec::run_plan`] on a sharded one — and demand **byte identity at
//! the wire level**: every per-command reply (including errors, which
//! render as `ERR <CODE> <message>`) plus the post-run `lineage` view of
//! the world. Shipped rules must survive the oracle on every point of the
//! shards × threads grid; tombstoned candidates must be *rejected* by the
//! same oracle when applied on purpose ([`audit_tombstones`]).
//!
//! Two tiers share this module:
//!
//! * **kick-tires** (the default `#[test]` battery and `scripts/ci.sh`):
//!   one corpus seed, the kick-tires query subset, the full grid;
//! * **full** (`GEA_OPT_AUDIT=full`, `scripts/ci-nightly.sh`, and the
//!   `gea-opt-audit` bin): three seeds × all 13 thesis queries.

use std::collections::BTreeSet;

use gea_core::session::{ExecConfig, GeaSession};
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};
use gea_server::gql::{self, GqlCommand, Request};
use gea_server::{engine, optexec};

/// The audit grid: shards {1, 2, 3, 7} × threads {1, 4}. Optimized
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

/// Every library name in the session's base corpus, for `select` shapes.
pub fn library_names(session: &GeaSession) -> Vec<String> {
    session
        .base()
        .libraries()
        .iter()
        .map(|m| m.name.clone())
        .collect()
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
/// applicability), both fusion shapes on their success paths, and the
/// fusion error paths (phase-1 name conflict, phase-2 top-name conflict,
/// phase-1 unknown SUMY) that exercise the continue-on-error fallbacks.
pub fn shipped_pipeline(all_libraries: &[String], full: bool) -> Vec<GqlCommand> {
    let mut cmds = prelude();
    cmds.extend(gea_opt::audit::enumerate_self_compares("ga", "ca", full));
    cmds.extend(gea_opt::audit::enumerate_self_compares("gb", "cb", full));
    let select = format!("select X P {}", all_libraries.join(" "));
    cmds.extend(parse_lines(&[
        // World probe on a successful self-difference result.
        "show gap ca_d1 3",
        // fuse-gap-topgap, success path.
        "gap gc f_1CancerFasTbl f_1NormalTable",
        "topgap gc 5",
        "show gap gc_5 5",
        // fuse-populate-select, success path (selecting every library
        // keeps the populated ENUM intact).
        "populate P f_1CancerFasTbl Eb",
        &select,
        // Fused phase-1 conflict: `ga` exists; the paired topgap must
        // still run against the original `ga`.
        "gap ga f_1CancerFasTbl f_1NormalTable",
        "topgap ga 3",
        // Fused phase-2 conflict: the top name `gz_2` is taken, but the
        // gap phase's table must survive.
        "gap gz_2 f_1CancerFasTbl f_1NormalTable",
        "gap gz f_1CancerFasTbl f_1NormalTable",
        "topgap gz 2",
        "show gap gz 3",
        // Fused phase-1 unknown SUMY: the paired select then fails
        // against the never-created `Q`.
        "populate Q no_such_sumy Eb",
        "select Y Q SAGE_nope",
        // Standalone populates no rule touches, on their error paths: an
        // unknown SUMY, and a taken name (`P` exists since the fusion
        // above) — plain engine shapes the optimized side must leave be.
        "populate R2 no_such_sumy Eb",
        "populate P f_1CancerFasTbl Eb",
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

/// Serial reference execution: one literal command at a time,
/// continue-on-error (the REPL/server mode the audit compares in).
pub fn run_serial(session: &mut GeaSession, cmds: &[GqlCommand]) -> optexec::StepOutputs {
    cmds.iter()
        .enumerate()
        .map(|(i, cmd)| (i, engine::execute(session, cmd)))
        .collect()
}

/// Render outcomes the way the wire does: the reply payload, or a single
/// `ERR <CODE> <message>` line, tagged with the source-command index.
pub fn wire(outputs: &optexec::StepOutputs) -> Vec<String> {
    outputs
        .iter()
        .map(|(i, r)| match r {
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
    /// Grid points × seeds executed on the optimized side.
    pub configs: usize,
    /// Commands per audit pipeline.
    pub pipeline_len: usize,
    /// Rewrites the optimizer applied, summed over seeds.
    pub rewrites: usize,
    /// Every rule that fired at least once.
    pub rules_fired: BTreeSet<&'static str>,
    /// Human-readable divergence descriptions; empty means the audit
    /// passed.
    pub divergences: Vec<String>,
}

fn first_diff(want: &[String], got: &[String]) -> String {
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return format!("at {i}: serial {w:?} vs optimized {g:?}");
        }
    }
    format!("length {} vs {}", want.len(), got.len())
}

/// Run the shipped-rule audit for a tier: serial reference once per seed,
/// optimized execution on every grid point, byte identity demanded for
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
        let want_wire = wire(&run_serial(&mut plain, &cmds));
        let want_world = world_digest(&plain);

        let plan = gea_opt::optimize(&cmds);
        report.rewrites += plan.rewrites.len();
        for rw in &plan.rewrites {
            report.rules_fired.insert(rw.rule);
        }

        for &(shards, threads) in AUDIT_GRID {
            let mut opt = open_session(seed, shards, threads);
            let got_wire = wire(&optexec::run_plan(&mut opt, &plan, false));
            let got_world = world_digest(&opt);
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
/// the original under the same serial oracle. Returns failure
/// descriptions — a tombstone whose mutation went unnoticed would be
/// eligible to ship, which is exactly what the tombstone exists to
/// prevent.
pub fn audit_tombstones() -> Vec<String> {
    let mut failures = Vec::new();
    let mut base_session = open_session(42, 1, 1);
    let base = tombstone_pipeline(&library_names(&base_session));
    let want_wire = wire(&run_serial(&mut base_session, &base));
    let want_world = world_digest(&base_session);
    for rule in gea_opt::tombstoned_rules() {
        let Some(mutated) = gea_opt::audit::apply_tombstone(rule, &base) else {
            failures.push(format!("{rule}: pattern missing from the audit pipeline"));
            continue;
        };
        let mut session = open_session(42, 1, 1);
        let got_wire = wire(&run_serial(&mut session, &mutated));
        let got_world = world_digest(&session);
        if want_wire == got_wire && want_world == got_world {
            failures.push(format!(
                "{rule}: mutated pipeline is observationally equivalent — the oracle would ship it"
            ));
        }
    }
    failures
}
