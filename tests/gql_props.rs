//! Parser fuzz battery for the GQL grammar: the parser must never panic —
//! not on arbitrary strings, not on mutated or truncated real commands —
//! and every command it does accept must round-trip through its canonical
//! spelling to the same parse (the response cache keys on `canonical()`,
//! so a non-fixpoint canonicalization would split or alias cache entries).
//!
//! The optimizer's algebraic canonicalization (`gea::opt`) rides the same
//! battery: whatever the parser accepts — including mutated and truncated
//! spellings — `canonicalize_cmd`/`cache_key`/`rewrite_command` must not
//! panic, and canonicalization must be a fixpoint (optimized cache keys
//! would otherwise split or alias entries, breaking cross-spelling
//! unification).

mod common;

use std::time::Duration;

use proptest::prelude::*;

use common::gql_gen::{self, GqlGen, Shape};
use gea::server::gql::{parse, tokenize, Form, Request, Slot, VerbSpec, VERBS};
use gea_router::RouterConfig;
use gea_server::{GeaClient, ServerConfig};

/// A corpus of valid spellings covering every verb and arm of the grammar,
/// used as mutation seeds: bit-flipped, spliced, and truncated variants of
/// *almost-valid* input exercise far deeper parse paths than pure noise.
const SEEDS: &[&str] = &[
    "help",
    "quit",
    "ping",
    "stats",
    "shutdown",
    "gen-corpus 42 /tmp/corpus",
    "load-demo 42",
    "load-dir /tmp/corpus",
    "open shared demo 42",
    "open shared dir /tmp/corpus",
    "use shared",
    "close shared",
    "sessions",
    "tissues",
    "cleaning",
    "lineage",
    "library 3",
    "library SAGE_brain_C00",
    "dataset Ebrain brain",
    "custom C SAGE_brain_C00 SAGE_brain_C01",
    "select S Ebrain SAGE_brain_C00",
    "project P Ebrain SAGE_brain_C00",
    "mine Ebrain f 50 3 6",
    "fascicles",
    "purity f_1",
    "groups f_1",
    "gap g1 f_1CancerFasTbl f_1NormalTable",
    "topgap g1 5",
    "compare cmp g1 g2 intersect 2",
    "compare cmp g1 g2 union 13",
    "compare cmp g1 g2 difference 4",
    "show gap g1 3",
    "show sumy f_1 5",
    "plot Ebrain f_1",
    "tagfreq SAGE TTTTTTTTTT",
    "xprofiler Ebrain",
    "export g1 /tmp/g1.csv",
    "comment g1 \"two words\"",
    "comment g1 \"an escaped \\\" quote\"",
    "delete g1",
    "delete --cascade Ebrain",
    "populate P",
    "populate P f_1 Ebrain",
    "save /tmp/session",
    "load /tmp/session",
    "check dataset E brain ; mine E f 50 3 6 ; purity f_1",
    "check comment g1 \"quoted ; separator\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: any printable-ASCII string (quotes, backslashes, and
    /// `;` included), parsed, never panics.
    #[test]
    fn parser_never_panics_on_arbitrary_strings(line in "[ -~]{0,120}") {
        let _ = parse(&line);
        let _ = tokenize(&line);
    }

    /// Arbitrary bytes (through lossy UTF-8): never panics, even with
    /// embedded NULs, replacement chars, and control bytes.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse(&line);
        let _ = tokenize(&line);
    }

    /// Mutated real commands: substitute one byte, splice two seeds, or
    /// truncate — almost-valid input must degrade to `Err`, never panic.
    #[test]
    fn parser_never_panics_on_mutated_commands(
        idx in 0usize..SEEDS.len(),
        other in 0usize..SEEDS.len(),
        pos in 0usize..128,
        byte in any::<u8>(),
        cut in 0usize..128,
    ) {
        let seed = SEEDS[idx];

        // One-byte substitution.
        let mut bytes = seed.as_bytes().to_vec();
        let p = pos % bytes.len().max(1);
        if p < bytes.len() {
            bytes[p] = byte;
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));

        // Truncation (at a char boundary; the corpus is ASCII).
        let cut = cut % (seed.len() + 1);
        let _ = parse(&seed[..cut]);

        // Splice: head of one seed, tail of another.
        let tail = SEEDS[other];
        let spliced = format!("{} {}", &seed[..cut], &tail[tail.len() - tail.len().min(cut)..]);
        let _ = parse(&spliced);
    }

    /// Every accepted command round-trips: `parse → canonical → parse`
    /// yields the same command, and `canonical` is a fixpoint.
    #[test]
    fn accepted_commands_round_trip_canonically(idx in 0usize..SEEDS.len()) {
        if let Ok(Some(Request::Gql(cmd))) = parse(SEEDS[idx]) {
            let canon = cmd.canonical();
            let reparsed = match parse(&canon) {
                Ok(Some(Request::Gql(c))) => c,
                other => {
                    return Err(TestCaseError::fail(format!(
                        "canonical {canon:?} did not re-parse: {other:?}"
                    )))
                }
            };
            prop_assert_eq!(&reparsed, &cmd, "round-trip changed the command");
            prop_assert_eq!(reparsed.canonical(), canon, "canonical is not a fixpoint");
        }
    }

    /// Optimizer canonicalization over the same mutation battery the
    /// parser endures: noise, one-byte substitutions, and truncations that
    /// happen to parse must canonicalize without panicking, the
    /// canonicalization must be a fixpoint, and the cache key must be
    /// invariant under it.
    #[test]
    fn canonicalization_never_panics_and_is_a_fixpoint(
        idx in 0usize..SEEDS.len(),
        pos in 0usize..128,
        byte in any::<u8>(),
        cut in 0usize..128,
        noise in "[ -~]{0,120}",
    ) {
        let seed = SEEDS[idx];
        let mut bytes = seed.as_bytes().to_vec();
        let p = pos % bytes.len().max(1);
        if p < bytes.len() {
            bytes[p] = byte;
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let truncated = &seed[..cut % (seed.len() + 1)];
        for line in [seed, mutated.as_str(), truncated, noise.as_str()] {
            if let Ok(Some(Request::Gql(cmd))) = parse(line) {
                let canon = gea::opt::canonicalize_cmd(&cmd);
                prop_assert_eq!(
                    gea::opt::canonicalize_cmd(&canon),
                    canon.clone(),
                    "canonicalize is not a fixpoint for {:?}",
                    line
                );
                let key = gea::opt::cache_key(&cmd);
                prop_assert_eq!(
                    gea::opt::cache_key(&canon),
                    key,
                    "cache key not invariant under canonicalization for {:?}",
                    line
                );
                // Nor must matching whatever parses against the rules.
                let _ = gea::opt::rewrite_command(0, &cmd);
            }
        }
    }

    /// Whitespace never changes meaning: padding between tokens of any
    /// accepted command re-parses to the same canonical spelling.
    #[test]
    fn token_padding_is_meaningless(
        idx in 0usize..SEEDS.len(),
        pad in prop::collection::vec(1usize..4, 0..24),
    ) {
        let seed = SEEDS[idx];
        if seed.contains('"') {
            // Quoted arguments preserve interior spacing by design.
            return Ok(());
        }
        if let Ok(Some(Request::Gql(cmd))) = parse(seed) {
            let mut padded = String::new();
            for (i, tok) in seed.split_whitespace().enumerate() {
                let n = pad.get(i).copied().unwrap_or(1);
                if i > 0 {
                    padded.push_str(&" ".repeat(n));
                }
                padded.push_str(tok);
            }
            let reparsed = match parse(&padded) {
                Ok(Some(Request::Gql(c))) => c,
                other => {
                    return Err(TestCaseError::fail(format!(
                        "padded {padded:?} did not re-parse: {other:?}"
                    )))
                }
            };
            prop_assert_eq!(reparsed.canonical(), cmd.canonical());
        }
    }
}

/// The seed corpus really covers the grammar: every verb of the grammar
/// table appears, so the mutation battery reaches every arm.
#[test]
fn seed_corpus_covers_every_verb() {
    let verbs: std::collections::BTreeSet<&str> = SEEDS
        .iter()
        .filter_map(|s| s.split_whitespace().next())
        .collect();
    for spec in VERBS {
        assert!(
            verbs.contains(spec.name),
            "no seed exercises {:?}",
            spec.name
        );
    }
}

/// Generated lines per form and shape.
const DRAWS: u64 = 24;

/// Every form of every verb, `DRAWS` times, as tokens of `shape`, with the
/// form's verb.
fn generated(shape: Shape) -> Vec<(&'static VerbSpec, &'static Form, Vec<String>)> {
    let names: Vec<String> = ["t0", "E", "f_1", "my table"].map(String::from).into();
    let mut gen = GqlGen::new(0x6E4);
    let mut out = Vec::new();
    for spec in VERBS {
        for form in spec.forms {
            for _ in 0..DRAWS {
                out.push((spec, form, gen.tokens(form, &names, shape)));
            }
        }
    }
    out
}

/// Whether a form's last slot takes a bounded number of tokens, so one
/// more token is surplus rather than another list item.
fn bounded(form: &Form) -> bool {
    !matches!(form.slots.last(), Some(Slot::Many { .. }))
}

/// Every generated line parses, to a command of its own verb, and an
/// algebra command round-trips: `parse(canonical(parse(l))) == parse(l)`.
#[test]
fn generated_lines_parse_and_round_trip_canonically() {
    for shape in [Shape::Minimal, Shape::Full, Shape::Random] {
        for (spec, _, tokens) in generated(shape) {
            let line = gql_gen::join(spec.name, &tokens);
            let parsed = parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            let Some(Request::Gql(cmd)) = &parsed else {
                continue;
            };
            assert_eq!(cmd.verb(), spec.name, "{line:?}");
            let canon = cmd.canonical();
            assert_eq!(parse(&canon), Ok(parsed.clone()), "{line:?} -> {canon:?}");
        }
    }
}

/// One token past a full line of a bounded form is `usage: …`.
#[test]
fn a_surplus_token_is_a_usage_error() {
    for (spec, form, tokens) in generated(Shape::Full) {
        if bounded(form) {
            let line = format!("{} extra", gql_gen::join(spec.name, &tokens));
            let err = parse(&line).expect_err(&line);
            assert!(err.0.starts_with("usage: "), "{line:?}: {err}");
        }
    }
}

/// Any one token dropped from a minimal line is a parse error, and outside
/// `check`'s pipeline it is `usage: …`.
#[test]
fn a_missing_token_is_a_usage_error() {
    for (spec, _, tokens) in generated(Shape::Minimal) {
        for i in 0..tokens.len() {
            let mut short = tokens.clone();
            short.remove(i);
            let line = gql_gen::join(spec.name, &short);
            let err = parse(&line).expect_err(&line);
            assert!(
                spec.name == "check" || err.0.starts_with("usage: "),
                "{line:?}: {err}"
            );
        }
    }
}

/// A line with a surplus token answers the same `ERR EPARSE usage: …` sent
/// to a server directly, through a router over two backends, and (for an
/// algebra verb) inside `check`.
#[test]
fn surplus_tokens_answer_one_eparse_everywhere() {
    let server = || {
        common::spawn_server(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
    };
    let (direct, backends) = (server(), [server(), server()]);
    let router = common::spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|b| b.addr.to_string()).collect(),
        health_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    });
    let mut direct_client = GeaClient::connect(direct.addr).expect("connect server");
    let mut routed_client = GeaClient::connect(router.addr).expect("connect router");
    // Hand-written ones first; a misspelt flag is a surplus token too.
    let mut lines: Vec<(&VerbSpec, String)> = [
        "delete E --cascde",
        "show gap g 5 6 7",
        "tissues foo",
        "lineage x",
        "fascicles x",
        "cleaning x",
        "ping pong",
    ]
    .map(|l| (gql_gen::spec(l.split(' ').next().unwrap()), l.to_string()))
    .into();
    let mut gen = GqlGen::new(0x5u64);
    let names = ["t0".to_string()];
    for spec in VERBS {
        for form in spec.forms.iter().filter(|f| bounded(f)) {
            let tokens = gen.tokens(form, &names, Shape::Full);
            lines.push((spec, format!("{} extra", gql_gen::join(spec.name, &tokens))));
        }
    }
    for (spec, line) in lines {
        let want = direct_client.request(&line).expect("server transport");
        let Err((code, message)) = &want else {
            panic!("{line:?} answered {want:?}");
        };
        assert_eq!(code, "EPARSE", "{line:?}");
        assert!(message.starts_with("usage: "), "{line:?}: {message}");
        let routed = routed_client.request(&line).expect("router transport");
        assert_eq!(routed, want, "router: {line:?}");
        if spec.effect.is_some() {
            let checked = direct_client.request(&format!("check {line}"));
            assert_eq!(checked.expect("server transport"), want, "check {line:?}");
        }
    }
    router.stop();
    direct.stop();
    for backend in &backends {
        backend.stop();
    }
}
