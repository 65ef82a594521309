//! Execution of optimized [`Plan`]s.
//!
//! `gea-opt` plans; this module runs. Every fast-path and fused step ends
//! by calling the *same* reply-rendering helpers the literal engine arms
//! use (`engine::render_*`), so an optimized pipeline's wire output is
//! byte-identical to unoptimized execution by construction — and the rule
//! audit (`tests/opt_audit.rs`) re-proves it empirically over randomized
//! corpora and shard/thread grids.
//!
//! Error semantics follow the two front-end modes:
//!
//! * **batch** (`stop_on_error = true`): execution halts at the first
//!   failed command, like `gea-cli --script`;
//! * **REPL/server** (`stop_on_error = false`): every command runs and
//!   reports independently. A fused step whose first phase fails then
//!   *falls back* to executing its second phase literally — serially, a
//!   failed `gap G …` does not stop the next `topgap G x` from running
//!   against whatever `G` previously named, and the fused step must
//!   preserve exactly that.

use gea_core::session::GeaSession;
use gea_core::topgap::TopGapOrder;
use gea_exec::ScatterOp;
use gea_opt::{Plan, Step};

use crate::engine::{self, EngineError};
use crate::gql::GqlCommand;

/// Per-command outcomes, tagged with the source-pipeline index.
pub type StepOutputs = Vec<(usize, Result<String, EngineError>)>;

/// Execute a single-command rewritten step — the server's write-path entry
/// point (the wire protocol carries one command per request, so fused
/// steps never reach here).
pub fn run_rewritten(session: &mut GeaSession, step: &Step) -> Result<String, EngineError> {
    match step {
        Step::Exec { cmd, .. } => engine::execute(session, cmd),
        Step::CompareSelf {
            name,
            gap,
            op,
            query,
            rule,
            ..
        } => {
            session.compare_gaps_self_rewritten(name, gap, *op, *query, rule)?;
            Ok(engine::render_compare_created(session, name, *query))
        }
        fused => {
            debug_assert!(false, "fused step in single-command context: {fused:?}");
            Err(EngineError::new(
                "EUNKNOWN",
                "fused plan step in single-command context",
            ))
        }
    }
}

/// Execute one plan step, appending `(source index, outcome)` pairs to
/// `out` in command order. Returns `false` when execution must halt
/// (`stop_on_error` and a command failed).
fn run_step(
    session: &mut GeaSession,
    step: &Step,
    stop_on_error: bool,
    out: &mut StepOutputs,
) -> bool {
    match step {
        Step::Exec { index, .. } | Step::CompareSelf { index, .. } => {
            let r = run_rewritten(session, step);
            let failed = r.is_err();
            out.push((*index, r));
            !(stop_on_error && failed)
        }
        Step::FusedGapTopGap {
            gap_index,
            top_index,
            name,
            sumy1,
            sumy2,
            x,
            rule,
        } => {
            match session.create_gap_with_top(
                name,
                sumy1,
                sumy2,
                *x,
                TopGapOrder::LargestMagnitude,
                rule,
            ) {
                Err(e) => {
                    out.push((*gap_index, Err(e.into())));
                    if stop_on_error {
                        return false;
                    }
                    // REPL fallback: the paired topgap still runs, against
                    // whatever `name` previously meant (if anything).
                    let cmd = GqlCommand::TopGap {
                        gap: name.clone(),
                        x: *x,
                    };
                    out.push((*top_index, engine::execute(session, &cmd)));
                    true
                }
                Ok(top_outcome) => {
                    out.push((*gap_index, Ok(engine::render_gap_created(session, name))));
                    match top_outcome {
                        Err(e) => {
                            out.push((*top_index, Err(e.into())));
                            !stop_on_error
                        }
                        Ok(top) => {
                            out.push((
                                *top_index,
                                Ok(engine::render_topgap_created(session, &top)),
                            ));
                            true
                        }
                    }
                }
            }
        }
        Step::FusedPopulateSelect {
            populate_index,
            select_index,
            name,
            sumy,
            dataset,
            select_name,
            libraries,
            rule,
        } => {
            let populate = ScatterOp::Populate {
                name: name.clone(),
                sumy: sumy.clone(),
                dataset: dataset.clone(),
            };
            match engine::execute_scatter(session, &populate) {
                Err(e) => {
                    out.push((*populate_index, Err(e)));
                    if stop_on_error {
                        return false;
                    }
                    // REPL fallback: the selection still runs against the
                    // pre-existing meaning of `name` (if any).
                    let cmd = GqlCommand::Select {
                        name: select_name.clone(),
                        dataset: name.clone(),
                        libraries: libraries.clone(),
                    };
                    out.push((*select_index, engine::execute(session, &cmd)));
                    true
                }
                Ok(reply) => {
                    out.push((*populate_index, Ok(reply)));
                    let libs: Vec<&str> = libraries.iter().map(|s| s.as_str()).collect();
                    let r = session
                        .select_dataset_libraries_traced(select_name, name, &libs, Some(rule))
                        .map_err(EngineError::from)
                        .and_then(|()| engine::render_select_created(session, select_name, name));
                    let failed = r.is_err();
                    out.push((*select_index, r));
                    !(stop_on_error && failed)
                }
            }
        }
    }
}

/// Execute a whole plan. Outputs are in source-command order; with
/// `stop_on_error` the vector ends at the first failed command.
pub fn run_plan(session: &mut GeaSession, plan: &Plan, stop_on_error: bool) -> StepOutputs {
    let mut out = StepOutputs::new();
    for step in &plan.steps {
        if !run_step(session, step, stop_on_error, &mut out) {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gql::{parse, Request};
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};

    fn demo_session() -> GeaSession {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        GeaSession::open(corpus, &CleaningConfig::default()).unwrap()
    }

    fn cmds(lines: &[&str]) -> Vec<GqlCommand> {
        lines
            .iter()
            .map(|l| match parse(l).unwrap().unwrap() {
                Request::Gql(c) => c,
                other => panic!("{l}: {other:?}"),
            })
            .collect()
    }

    /// Serial reference: execute literally, one command at a time.
    fn run_serial(
        session: &mut GeaSession,
        pipeline: &[GqlCommand],
        stop_on_error: bool,
    ) -> StepOutputs {
        let mut out = StepOutputs::new();
        for (i, cmd) in pipeline.iter().enumerate() {
            let r = engine::execute(session, cmd);
            let failed = r.is_err();
            out.push((i, r));
            if stop_on_error && failed {
                break;
            }
        }
        out
    }

    fn brain_prelude() -> Vec<&'static str> {
        vec![
            "dataset Eb brain",
            "mine Eb f 50 3 6",
            "groups f_1",
            "gap ga f_1CancerFasTbl f_1NormalTable",
            "gap gb f_1CancerFasTbl f_1CanNotInFasTbl",
        ]
    }

    fn assert_equivalent(pipeline: &[&str], stop_on_error: bool) {
        let mut plain = demo_session();
        let mut opt = demo_session();
        let src = cmds(pipeline);
        let want = run_serial(&mut plain, &src, stop_on_error);
        let plan = gea_opt::optimize(&src);
        let got = run_plan(&mut opt, &plan, stop_on_error);
        assert_eq!(want, got, "pipeline {pipeline:?}");
        // World state follows suit.
        assert_eq!(
            engine::execute(&mut plain, &cmds(&["lineage"])[0]).unwrap(),
            engine::execute(&mut opt, &cmds(&["lineage"])[0]).unwrap()
        );
    }

    #[test]
    fn optimized_self_compares_match_serial_execution() {
        let mut pipeline = brain_prelude();
        pipeline.extend([
            "compare cu ga ga union 2",
            "compare ci ga ga intersect 5",
            "compare cd ga ga difference 4",
            "compare cq ga ga union 7",
            "show gap cu 5",
            "show gap cd 5",
        ]);
        assert_equivalent(&pipeline, true);
    }

    #[test]
    fn fused_steps_match_serial_execution() {
        let mut pipeline = brain_prelude();
        pipeline.extend([
            "gap gc f_1CancerFasTbl f_1NormalTable",
            "topgap gc 5",
            "show gap gc_5 10",
        ]);
        assert_equivalent(&pipeline, true);
    }

    #[test]
    fn fused_phase_errors_keep_serial_semantics_in_both_modes() {
        // Phase 1 fails (name conflict): batch stops; REPL falls back to
        // running the topgap against the pre-existing gap.
        let mut pipeline = brain_prelude();
        pipeline.extend(["gap ga f_1CancerFasTbl f_1NormalTable", "topgap ga 3"]);
        assert_equivalent(&pipeline.clone(), true);
        assert_equivalent(&pipeline, false);

        // Phase 2 fails (top name taken): phase 1's table must survive.
        let mut pipeline = brain_prelude();
        pipeline.extend([
            "gap gd_3 f_1CancerFasTbl f_1NormalTable",
            "gap gd f_1CancerFasTbl f_1NormalTable",
            "topgap gd 3",
            "show gap gd 5",
        ]);
        assert_equivalent(&pipeline.clone(), false);
    }

    #[test]
    fn rewritten_single_command_runs_on_the_server_entry_point() {
        let mut plain = demo_session();
        let mut opt = demo_session();
        for line in brain_prelude() {
            let src = cmds(&[line]);
            engine::execute(&mut plain, &src[0]).unwrap();
            engine::execute(&mut opt, &src[0]).unwrap();
        }

        // Self-difference succeeds (single `Gap` column, empty rows) — the
        // happy path must render byte-identically.
        let src = cmds(&["compare cd ga ga difference 4"]);
        let want = engine::execute(&mut plain, &src[0]);
        let (step, rewrite) = gea_opt::rewrite_command(0, &src[0]).unwrap();
        assert_eq!(rewrite.rule, gea_opt::RULE_SELF_MINUS);
        let got = run_rewritten(&mut opt, &step);
        assert_eq!(want, got);
        want.unwrap();

        // Self-union errors even serially: qualified columns `ga.Gap` appear
        // twice and materialization rejects duplicates (EEMPTY). The fast
        // path must preserve that error byte-for-byte, not "fix" it.
        let src = cmds(&["compare cu ga ga union 2"]);
        let want = engine::execute(&mut plain, &src[0]);
        let (step, rewrite) = gea_opt::rewrite_command(0, &src[0]).unwrap();
        assert_eq!(rewrite.rule, gea_opt::RULE_SELF_UNION);
        let got = run_rewritten(&mut opt, &step);
        assert_eq!(want, got);
        assert_eq!(want.unwrap_err().code, "EEMPTY");
    }
}
