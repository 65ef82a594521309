//! End-to-end coverage of the pluggable mining-backend subsystem: GQL's
//! `mine … with <algo>` through the server engine, byte identity across
//! executor shapes, sugar equivalence of `with fascicles`, and backend
//! provenance surviving the `session.gea` save/spill/load round trip.

use gea::core::persist::{load_session, load_session_verified, save_session, spill_session};
use gea::core::session::GeaSession;
use gea::core::ExecConfig;
use gea::sage::clean::CleaningConfig;
use gea::sage::generate::{generate, GeneratorConfig};
use gea::server::engine;
use gea::server::gql::{parse, Request};

fn session() -> GeaSession {
    let (corpus, _) = generate(&GeneratorConfig::demo(42));
    GeaSession::open(corpus, &CleaningConfig::default()).unwrap()
}

fn run(session: &mut GeaSession, line: &str) -> String {
    let Some(Request::Gql(cmd)) = parse(line).unwrap() else {
        panic!("{line:?} is not an algebra command");
    };
    engine::execute(session, &cmd).unwrap_or_else(|e| panic!("{line:?}: {e}"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gea_mine_backends_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Both new backends, driven through the engine on a serial and an
/// odd-shards/many-threads session: identical replies, identical tables,
/// and a `mine` exec event noted on both.
#[test]
fn mine_with_is_byte_identical_across_executors() {
    let mut serial = session();
    serial.set_exec_config(ExecConfig::serial());
    let mut sharded = session();
    sharded.set_exec_config(ExecConfig {
        threads: 4,
        shards: 3,
    });

    let script = [
        "dataset Eb brain",
        "mine Eb isa_m with isa seeds=6 t_tags=0.8 t_libs=0.8",
        "mine Eb spx with simplex k=2 zero_repl=0.5",
    ];
    for line in script {
        let a = run(&mut serial, line);
        let b = run(&mut sharded, line);
        assert_eq!(a, b, "engine reply diverged on {line:?}");
    }
    assert_eq!(
        serial.fascicle_records().keys().collect::<Vec<_>>(),
        sharded.fascicle_records().keys().collect::<Vec<_>>()
    );
    for (name, rec) in serial.fascicle_records() {
        let other = &sharded.fascicle_records()[name];
        assert_eq!(rec.backend, other.backend, "{name}: backend diverged");
        assert_eq!(rec.params, other.params, "{name}: params diverged");
        assert_eq!(
            serial.enum_table(name).unwrap().matrix,
            sharded.enum_table(name).unwrap().matrix,
            "{name}: member matrix diverged"
        );
        assert_eq!(
            serial.sumy(name).unwrap(),
            sharded.sumy(name).unwrap(),
            "{name}: SUMY diverged"
        );
    }
    for s in [&mut serial, &mut sharded] {
        let events = s.drain_exec_events();
        assert!(
            events.iter().filter(|e| e.op == "mine").count() >= 2,
            "expected a mine event per backend run, got {events:?}"
        );
    }
}

/// The positional `mine` is `with fascicles key=val`: same command, same
/// replies, same lineage, same fascicle records.
#[test]
fn with_fascicles_is_sugar_for_bare_mine() {
    let mut bare = session();
    let mut sugared = session();
    run(&mut bare, "dataset Eb brain");
    run(&mut sugared, "dataset Eb brain");
    assert_eq!(
        parse("mine Eb f 50 3 6").unwrap(),
        parse("mine Eb f with fascicles k_pct=50 min_records=3 batch=6").unwrap()
    );
    let a = run(&mut bare, "mine Eb f 50 3 6");
    let b = run(
        &mut sugared,
        "mine Eb f with fascicles k_pct=50 min_records=3 batch=6",
    );
    assert_eq!(a, b, "sugared reply differs");
    assert_eq!(
        format!("{:?}", bare.fascicle_records()),
        format!("{:?}", sugared.fascicle_records())
    );
    assert_eq!(
        bare.lineage().render_tree(),
        sugared.lineage().render_tree()
    );
}

/// Backend provenance (algorithm + resolved parameters) survives both
/// persistence paths: the explicit `save`/`load` round trip and the
/// server's spill/restore.
#[test]
fn backend_provenance_survives_save_and_spill() {
    let mut s = session();
    run(&mut s, "dataset Eb brain");
    run(
        &mut s,
        "mine Eb isa_m with isa seeds=6 t_tags=0.8 t_libs=0.8",
    );
    run(&mut s, "mine Eb spx with simplex k=2");
    let mined: Vec<String> = s.fascicle_records().keys().cloned().collect();
    assert!(!mined.is_empty(), "no clusters mined");
    let isa_rec = s
        .fascicle_records()
        .values()
        .find(|r| r.backend == "isa")
        .expect("no isa-mined fascicle");
    assert_eq!(
        isa_rec.params,
        vec![
            ("seeds".to_string(), "6".to_string()),
            ("t_tags".to_string(), "0.8".to_string()),
            ("t_libs".to_string(), "0.8".to_string()),
            ("max_iters".to_string(), "50".to_string()),
        ],
        "resolved isa params (schema order, defaults filled) not recorded"
    );

    // save/load.
    let dir = temp_dir("save");
    save_session(&s, &dir).unwrap();
    let restored = load_session(&dir).unwrap();
    assert_eq!(
        format!("{:?}", restored.fascicle_records()),
        format!("{:?}", s.fascicle_records()),
        "save/load lost backend provenance"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // spill/restore (the server's transparent eviction path).
    let spill_dir = temp_dir("spill");
    let spilled = spill_session(&s, &spill_dir, "sess").unwrap();
    let restored = load_session_verified(&spilled.path, spilled.fingerprint).unwrap();
    assert_eq!(
        format!("{:?}", restored.fascicle_records()),
        format!("{:?}", s.fascicle_records()),
        "spill/restore lost backend provenance"
    );
    for r in restored.fascicle_records().values() {
        assert!(["fascicles", "isa", "simplex"].contains(&r.backend.as_str()));
    }
    std::fs::remove_dir_all(&spill_dir).unwrap();
}

/// Registry misuse surfaces as errors, not panics: unknown algorithms,
/// unknown keys and out-of-domain values never parse, and a command built
/// by hand around the grammar gets the grammar's message as `EPARSE`.
#[test]
fn bad_backend_requests_are_engine_errors() {
    let mut s = session();
    run(&mut s, "dataset Eb brain");
    let message = "parameter seeds = 0 out of domain (integer 1..=4096)";
    assert_eq!(parse("mine Eb x with isa seeds=0").unwrap_err().0, message);
    let cmd = gea::server::gql::GqlCommand::MineWith {
        dataset: "Eb".into(),
        out: "x".into(),
        algo: "isa".into(),
        params: vec![("seeds".into(), gea::mine::ParamValue::UInt(0))],
    };
    let err = engine::execute(&mut s, &cmd).unwrap_err();
    assert_eq!((err.code, err.message.as_str()), ("EPARSE", message));
    assert!(s.fascicle_records().is_empty(), "a refused mine installed");
    assert!(parse("mine Eb x with pca").is_err());
    assert!(parse("mine Eb x with isa bogus=1").is_err());
}
