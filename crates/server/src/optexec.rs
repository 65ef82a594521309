//! Execution of rewritten commands.
//!
//! `gea-opt` recognises; this module runs. A rewritten [`Step`] ends by
//! calling the *same* reply-rendering helper the literal engine arm uses
//! (`engine::render_*`), so its wire output is byte-identical to
//! [`engine::execute`] by construction — and the rule audit
//! (`gea::audit`, run by `tests/opt_audit.rs`) re-proves it empirically
//! over randomized corpora and shard/thread grids.
//!
//! Every front end — the REPL, `gea-cli --script`, piped stdin and
//! `gea-server` — reaches a session the same way: parse,
//! `gea_opt::rewrite_command`, then [`run_rewritten`] or the engine.
//! [`execute`] is that path for callers with exclusive access; the server
//! spells it out in `run_gql` to count rewrites and split its locks.

use gea_core::session::GeaSession;
use gea_opt::Step;

use crate::engine::{self, EngineError};
use crate::gql::GqlCommand;

/// Execute a command the way every front end does: rewritten if a shipped
/// `gea-opt` rule matches, the literal engine otherwise.
pub fn execute(session: &mut GeaSession, cmd: &GqlCommand) -> Result<String, EngineError> {
    match gea_opt::rewrite_command(0, cmd) {
        Some((step, _)) => run_rewritten(session, &step),
        None => engine::execute(session, cmd),
    }
}

/// Execute a rewritten command in place of its literal engine arm.
pub fn run_rewritten(session: &mut GeaSession, step: &Step) -> Result<String, EngineError> {
    let Step::CompareSelf {
        name,
        gap,
        op,
        query,
        rule,
    } = step;
    session.compare_gaps_self_rewritten(name, gap, *op, *query, rule)?;
    Ok(engine::render_compare_created(session, name, *query))
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

    fn brain_prelude() -> Vec<&'static str> {
        vec![
            "dataset Eb brain",
            "mine Eb f 50 3 6",
            "groups f_1",
            "gap ga f_1CancerFasTbl f_1NormalTable",
            "gap gb f_1CancerFasTbl f_1CanNotInFasTbl",
        ]
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
        let mut plain = demo_session();
        let mut opt = demo_session();
        for cmd in cmds(&pipeline) {
            assert_eq!(
                engine::execute(&mut plain, &cmd),
                execute(&mut opt, &cmd),
                "{cmd:?}"
            );
        }
        // World state follows suit.
        let lineage = &cmds(&["lineage"])[0];
        assert_eq!(
            engine::execute(&mut plain, lineage).unwrap(),
            engine::execute(&mut opt, lineage).unwrap()
        );
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
