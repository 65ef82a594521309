//! Differential equivalence battery for `gea-opt`: randomized multi-verb
//! GQL streams over randomized corpora must produce byte-identical wire
//! output — including the lineage-visible world state afterwards — from
//! the front ends (which rewrite self-compares and canonicalize cache
//! keys) and from the literal engine alone on the same corpus. One battery
//! runs batch scripts through `Cli::run_script`, one drives a live TCP
//! server, and one proves cache-key unification: two algebraically-equal
//! spellings of a command share a single cache entry, with the hit
//! counted.

mod common;

use std::time::Duration;

use rand::Rng;

use common::gql_gen::GqlGen;
use gea::audit;
use gea::cli::Cli;
use gea_core::session::GeaSession;
use gea_server::wire::Reply;
use gea_server::{engine, GeaClient, ServerConfig};

const ROUNDS_PER_CORPUS: usize = 6;
const STEPS_PER_ROUND: usize = 10;

const PRELUDE: [&str; 5] = [
    "dataset Eb brain",
    "mine Eb f 50 3 6",
    "groups f_1",
    "gap ga f_1CancerFasTbl f_1NormalTable",
    "gap gb f_1CancerFasTbl f_1CanNotInFasTbl",
];

fn serve() -> (GeaClient, common::Daemon) {
    common::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
}

/// Ground truth: the literal engine on an in-process session, framed the
/// way the wire frames it (payloads flattened through `lines()`).
fn engine_reply(session: &mut GeaSession, line: &str) -> Reply {
    engine::execute(session, &audit::parse_lines(&[line])[0])
        .map(|payload| payload.lines().collect::<Vec<_>>().join("\n"))
        .map_err(|e| (e.code.to_string(), e.message))
}

/// The grammar's generator over the prelude's tables: compares draw their
/// operands from `ga`/`gb` and gaps their SUMYs from `f_1`'s.
fn generator(seed: u64) -> GqlGen {
    GqlGen::new(seed)
        .with("<g1>", &["ga", "gb"])
        .with("<g2>", &["ga", "gb"])
        .with("<sumy1>", &["f_1CancerFasTbl"])
        .with("<sumy2>", &["f_1NormalTable", "f_1CanNotInFasTbl"])
}

/// One randomized GQL step. Most draws yield a single command; some yield
/// an adjacent `gap` + `topgap` pair. Errors (name conflicts, inapplicable
/// queries, unknown names) are drawn on purpose — equivalence covers error
/// replies too.
fn random_steps(gen: &mut GqlGen, round: usize, step: usize) -> Vec<String> {
    let fresh = [format!("t{round}_{step}")];
    let ga = ["ga".to_string()];
    match gen.rng().gen_range(0..10u32) {
        // Compares over `ga`/`gb`, queries drawn from the full menu
        // (difference + 6..13 errs EQUERY): half are self-compares, the
        // three single-command rewrite rules; two-operand ones must never
        // be rewritten (commutation is tombstoned).
        0..=3 => vec![gen.line("compare", &fresh)],
        // An adjacent pair: gap + topgap on the fresh name.
        4 | 5 => vec![gen.line("gap", &fresh), gen.line("topgap", &fresh)],
        // The same pair with a name conflict: `ga` always exists.
        6 => vec![gen.line("gap", &ga), gen.line("topgap", &ga)],
        // World probes.
        7 => vec![gen.line("show", &ga)],
        8 => vec![gen.line("lineage", &[])],
        // Unknown-name errors.
        _ => vec![gen.line("topgap", &[format!("nosuch_{}", fresh[0])])],
    }
}

/// The batch-level differential: the same randomized scripts through the
/// batch interpreter and through the literal engine, on the same corpus.
/// Every reply — including the error a batch halts on, and where it halts
/// — must match, and so must the lineage afterwards.
#[test]
fn randomized_batch_scripts_match_with_and_without_the_optimizer() {
    for corpus_seed in [42u64, 7] {
        let mut plain = audit::open_session(corpus_seed, 1, 1);
        let mut cli = Cli::new();
        let outcomes = cli.run_script(&format!("load-demo {corpus_seed}\n"));
        assert!(outcomes.iter().all(|(_, r)| r.is_ok()), "{outcomes:?}");
        // The literal engine in batch mode: halt at the first error.
        let mut literal = |script: &str| {
            let mut out = Vec::new();
            for (idx, line) in script.lines().enumerate() {
                let outcome = engine::execute(&mut plain, &audit::parse_lines(&[line])[0])
                    .map_err(|e| format!("{} {}", e.code, e.message));
                let halt = outcome.is_err();
                out.push((idx + 1, outcome));
                if halt {
                    break;
                }
            }
            out
        };
        let prelude = PRELUDE.join("\n");
        assert_eq!(literal(&prelude), cli.run_script(&prelude));

        let mut gen = generator(0x0717_0000 + corpus_seed);
        for round in 0..ROUNDS_PER_CORPUS {
            let mut script = String::new();
            for step in 0..STEPS_PER_ROUND {
                for line in random_steps(&mut gen, round, step) {
                    script.push_str(&line);
                    script.push('\n');
                }
            }
            let want = literal(&script);
            let got = cli.run_script(&script);
            assert_eq!(want, got, "corpus {corpus_seed} round {round}:\n{script}");
        }
        // World state (the lineage) agrees at the end.
        for probe in ["lineage", "cleaning"] {
            assert_eq!(literal(probe), cli.run_script(probe));
        }
    }
}

/// The wire-level differential: the same single-command stream against a
/// server — self-compare rewrites and canonical cache keys live — and the
/// literal engine in process; every reply must match byte-for-byte.
#[test]
fn server_replies_match_the_in_process_engine() {
    let (mut client, daemon) = serve();
    let mut plain = audit::open_session(42, 1, 1);
    client.expect_ok("open eq demo 42").expect("open");
    for line in PRELUDE {
        assert_eq!(
            client.request(line).expect("transport"),
            engine_reply(&mut plain, line),
            "{line}"
        );
    }

    let mut gen = generator(0xEC_41);
    let mut compared = 0usize;
    for round in 0..4 {
        for step in 0..STEPS_PER_ROUND {
            for line in random_steps(&mut gen, round, step) {
                let got = client.request(&line).expect("transport");
                assert_eq!(
                    got,
                    engine_reply(&mut plain, &line),
                    "replies diverged on {line:?}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0);
    assert_eq!(
        client.request("lineage").unwrap(),
        engine_reply(&mut plain, "lineage")
    );
    // The comparison is only meaningful if rewrites actually fired.
    let stats = client.expect_ok("stats").expect("stats");
    assert!(
        counter(&stats, "opt_rewrites") > 0,
        "no rewrites fired on the server"
    );
    daemon.stop();
}

fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("no {key} line in {stats:?}"))
        .parse()
        .unwrap()
}

/// Cache-key unification: `check compare c ga ga union 2` and
/// `check compare c ga ga intersect 2` are algebraically equal (the
/// self-union rewrite), so the second spelling must be served from the
/// first one's cache entry — one stored entry, one hit, and the
/// unification counted in `stats`.
#[test]
fn algebraically_equal_commands_share_one_cache_entry() {
    let union_spelling = "check compare c ga ga union 2";
    let intersect_spelling = "check compare c ga ga intersect 2";

    // Ground truth first: the engine answers both spellings
    // byte-identically, so serving one from the other's entry is sound.
    let mut plain = audit::open_session(42, 1, 1);
    let truth = engine_reply(&mut plain, union_spelling).expect("union check");
    assert_eq!(
        engine_reply(&mut plain, intersect_spelling),
        Ok(truth.clone()),
        "spellings are not observationally equal"
    );

    let (mut client, daemon) = serve();
    client.expect_ok("open eq demo 42").expect("open");
    let hits0 = counter(&client.expect_ok("stats").unwrap(), "cache_hits");
    let first = client.expect_ok(union_spelling).expect("first spelling");
    let misses_after_first = counter(&client.expect_ok("stats").unwrap(), "cache_misses");
    let second = client
        .expect_ok(intersect_spelling)
        .expect("second spelling");
    assert_eq!(first, second);
    assert_eq!(first, truth, "server disagrees with ground truth");
    let stats = client.expect_ok("stats").expect("stats");
    assert_eq!(
        counter(&stats, "cache_hits"),
        hits0 + 1,
        "second spelling did not hit the first one's entry: {stats}"
    );
    assert_eq!(
        counter(&stats, "cache_misses"),
        misses_after_first,
        "second spelling missed — keys were not unified: {stats}"
    );
    assert!(
        counter(&stats, "opt_key_unified") >= 1,
        "unification not counted: {stats}"
    );
    daemon.stop();
}
