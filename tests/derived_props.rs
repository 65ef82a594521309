//! Derived tables — a mined cluster's ENUM and SUMY, the `groups` outside
//! and contrast ENUMs, a `populate` result — are charged what they cost
//! once built, and building them changes nothing a client sees. Randomized
//! GQL programs from the grammar's generator run over random demo corpora
//! on two sessions: one builds every derived table before each step, the
//! other only what the commands themselves read. Every reply, and the
//! snapshot bytes at the end, must agree; each build must leave the
//! session's charge where it was; and a save must build nothing.

mod common;

use proptest::prelude::*;
use rand::Rng;

use common::gql_gen::GqlGen;
use gea::core::persist::{save_session, snapshot_to_bytes};
use gea::core::{ApproxMem, GeaSession};
use gea::sage::clean::CleaningConfig;
use gea::sage::generate::{generate, GeneratorConfig};
use gea::server::engine;
use gea::server::gql::{parse, Request};

/// Something of every derived kind, when the corpus yields a fascicle.
const PRELUDE: [&str; 6] = [
    "dataset E brain",
    "mine E f 50 3 6",
    "mine E m with isa seeds=6 t_tags=0.8 t_libs=0.8",
    "mine E s with simplex k=3",
    "groups f_1",
    "populate P f_1CancerFasTbl E",
];

/// The verbs a step draws from: every one that creates, reads or deletes
/// a table of a session (files and sessions aside).
const VERBS: [&str; 18] = [
    "dataset",
    "select",
    "project",
    "mine",
    "fascicles",
    "purity",
    "groups",
    "gap",
    "topgap",
    "compare",
    "show",
    "plot",
    "tagfreq",
    "delete",
    "populate",
    "check",
    "lineage",
    "xprofiler",
];

fn open(seed: u64) -> GeaSession {
    let (corpus, _) = generate(&GeneratorConfig::demo(seed));
    GeaSession::open(corpus, &CleaningConfig::default()).unwrap()
}

/// The engine's reply to `line`, error or not.
fn reply(session: &mut GeaSession, line: &str) -> String {
    let Ok(Some(Request::Gql(cmd))) = parse(line) else {
        panic!("{line:?} is not an algebra command");
    };
    match engine::execute(session, &cmd) {
        Ok(text) => text,
        Err(e) => format!("ERR {} {}", e.code, e.message),
    }
}

/// Every table name of `session`, for the generator's name slots.
fn live(session: &GeaSession) -> Vec<String> {
    let mut names: Vec<String> = session
        .enum_names()
        .chain(session.sumy_names())
        .chain(session.gap_tables().keys().map(String::as_str))
        .map(String::from)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Build every derived table of `session` not built yet, one at a time,
/// requiring that the session's charge stays where it was for each.
fn build_all(session: &GeaSession) {
    for (kind, name, built) in session.derived_tables() {
        if built {
            continue;
        }
        let charged = session.approx_bytes();
        match kind {
            "ENUM" => drop(session.enum_table(name).unwrap()),
            _ => drop(session.sumy(name).unwrap()),
        }
        assert_eq!(session.approx_bytes(), charged, "building {kind} {name}");
    }
    assert!(session.derived_tables().iter().all(|&(_, _, b)| b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn derived_tables_are_charged_as_built_and_building_them_changes_nothing(
        corpus_seed in 0u64..10_000,
        gen_seed in any::<u64>(),
    ) {
        let mut lazy = open(corpus_seed);
        let mut eager = open(corpus_seed);
        let mut gen = GqlGen::new(gen_seed);
        for step in 0..PRELUDE.len() + 30 {
            let line = match PRELUDE.get(step) {
                Some(line) => line.to_string(),
                None => {
                    let verb = VERBS[gen.rng().gen_range(0..VERBS.len())];
                    let mut names = live(&lazy);
                    names.extend([format!("t{step}"), "nosuch".to_string()]);
                    gen.line(verb, &names)
                }
            };
            build_all(&eager);
            let want = reply(&mut lazy, &line);
            prop_assert_eq!(reply(&mut eager, &line), want, "{}", line);
        }

        // A save builds nothing, and writes what the built twin writes.
        let built = |s: &GeaSession| -> Vec<(String, bool)> {
            s.derived_tables().iter().map(|&(k, n, b)| (format!("{k} {n}"), b)).collect()
        };
        let before = built(&lazy);
        let dir = std::env::temp_dir().join(format!(
            "gea_derived_props_{}_{corpus_seed}_{gen_seed}",
            std::process::id()
        ));
        save_session(&lazy, &dir).unwrap();
        let (bytes, _) = snapshot_to_bytes(&lazy).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(built(&lazy), before);
        build_all(&eager);
        prop_assert!(bytes == snapshot_to_bytes(&eager).unwrap().0);
        build_all(&lazy);
        prop_assert_eq!(lazy.approx_bytes(), eager.approx_bytes());
    }
}
