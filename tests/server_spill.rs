//! The spill transparency battery: with `--spill-dir` configured,
//! eviction must be invisible to clients. A server whose sessions are
//! constantly evicted to disk and restored on demand must answer every
//! command byte-identically to a server that never evicts — the spilled
//! session's tables, fascicles, gaps, and lineage all survive the round
//! trip. `EEVICTED` remains only for the degraded case: a spill file
//! that can no longer be read back.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use common::gql_gen::GqlGen;
use gea_server::ServerConfig;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gea_spill_{}_{tag}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// What `sessions` charged the demo-42 `WRITE_SCRIPT` session before and
/// after it loaded its own save, when every load decoded its own source.
const PINNED_BYTES: u64 = 2_178_851;

fn plain_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        lock_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

/// A 1-byte budget evicts the session the moment it is quiescent, so
/// every command against this server exercises the restore slow path.
fn spill_config(dir: PathBuf) -> ServerConfig {
    ServerConfig {
        session_budget: Some(1),
        spill_dir: Some(dir),
        ..plain_config()
    }
}

fn stat(stats: &str, key: &str) -> u64 {
    let prefix = format!("{key} ");
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no {key} in stats:\n{stats}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key}: {e}"))
}

/// The demo-42 pipeline: dataset -> fascicles -> control groups -> gap.
/// Deterministic, and rich enough that a lossy restore would corrupt at
/// least one of the read replies below.
const WRITE_SCRIPT: &[&str] = &[
    "dataset E brain",
    "mine E a 50 3 6",
    "groups a_1",
    "gap g a_1CancerFasTbl a_1NormalTable",
    "comment g \"gap of interest\"",
];

const READ_SCRIPT: &[&str] = &[
    "tissues",
    "cleaning",
    "lineage",
    "fascicles",
    "purity a_1",
    "show sumy a_1CancerFasTbl 5",
    "show gap g 5",
    "topgap g 5",
    "library 3",
    "xprofiler E",
];

#[test]
fn spilled_sessions_restore_transparently_and_byte_identical() {
    let (mut spilly, spill_handle) = common::serve(spill_config(temp_dir("transparent")));
    let (mut reference, ref_handle) = common::serve(plain_config());

    for client in [&mut spilly, &mut reference] {
        client.expect_ok("open t demo 42").expect("open");
    }
    for line in WRITE_SCRIPT.iter().chain(READ_SCRIPT) {
        let restored = spilly.request(line).expect("spill transport");
        let direct = reference.request(line).expect("plain transport");
        assert_eq!(
            restored, direct,
            "spill/restore changed the reply to {line:?}"
        );
    }
    // The gap chain must have actually succeeded — identical errors on
    // both sides would satisfy the comparison while proving nothing.
    let reply = spilly.request("show gap g 5").expect("transport");
    assert!(reply.is_ok(), "gap pipeline failed: {reply:?}");

    // `use` of a spilled name restores too, instead of EEVICTED.
    let msg = spilly.expect_ok("use t").expect("use restores");
    assert!(msg.contains("using session t"), "{msg}");

    let stats = spilly.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_spilled") >= 1, "{stats}");
    assert!(stat(&stats, "sessions_restored") >= 1, "{stats}");
    assert_eq!(stat(&stats, "spill_errors"), 0, "{stats}");

    spill_handle.stop();
    ref_handle.stop();
}

#[test]
fn corrupt_spill_file_degrades_to_eevicted_without_panicking() {
    let dir = temp_dir("corrupt");
    let (mut client, handle) = common::serve(spill_config(dir.clone()));

    // The eager budget check inside `open` spills the fresh session
    // synchronously, so the snapshot is on disk when the reply returns.
    client.expect_ok("open frag demo 42").expect("open");
    let stats = client.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_spilled") >= 1, "{stats}");
    let snapshot = std::fs::read_dir(&dir)
        .expect("spill dir")
        .filter_map(|e| Some(e.ok()?.path().join("session.gea")))
        .find(|p| p.exists())
        .expect("a session.gea snapshot under the spill dir");

    // Flip one byte mid-body: the fingerprint check must catch it.
    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snapshot, bytes).expect("corrupt snapshot");

    let err = client.request("tissues").expect("transport").unwrap_err();
    assert_eq!(err.0, "EEVICTED", "{err:?}");
    assert!(err.1.contains("unreadable"), "{err:?}");
    // The tombstone is demoted: later requests answer plain EEVICTED
    // instead of re-reading the broken file forever.
    let err = client.request("lineage").expect("transport").unwrap_err();
    assert_eq!(err.0, "EEVICTED", "{err:?}");

    // The server survived: still answering, and counting the failure.
    assert_eq!(client.request("ping").unwrap(), Ok("pong".to_string()));
    let stats = client.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "spill_errors") >= 1, "{stats}");

    // Re-opening the name recovers fully: a fresh (valid) spill cycle.
    client.expect_ok("open frag demo 42").expect("re-open");
    assert!(client.request("tissues").unwrap().is_ok());

    handle.stop();
}

#[test]
fn save_load_round_trips_a_session_over_the_wire() {
    let dir = temp_dir("saveload");
    let (mut client, handle) = common::serve(plain_config());

    client.expect_ok("open rt demo 42").expect("open");
    for line in WRITE_SCRIPT {
        client.expect_ok(line).expect("build state");
    }
    let lineage = client.expect_ok("lineage").expect("lineage");
    let gap = client.expect_ok("show gap g 5").expect("gap rows");

    let saved = client
        .expect_ok(&format!("save {}", dir.display()))
        .expect("save");
    assert!(saved.contains("snapshot"), "{saved}");

    // Diverge, then load: the saved state must replace the live one.
    client.expect_ok("dataset F breast").expect("diverge");
    assert_ne!(client.expect_ok("lineage").unwrap(), lineage);
    let restored = client
        .expect_ok(&format!("load {}", dir.display()))
        .expect("load");
    assert!(restored.contains("restored session"), "{restored}");

    assert_eq!(
        client.expect_ok("lineage").unwrap(),
        lineage,
        "lineage not restored byte-identically"
    );
    assert_eq!(
        client.expect_ok("show gap g 5").unwrap(),
        gap,
        "gap table not restored byte-identically"
    );
    // The divergent dataset is gone: `load` replaced, not merged.
    assert!(client.request("tagfreq F AAAAAAAAAA").unwrap().is_err());

    handle.stop();
}

/// A session restored from a spill is the session that was spilled: after
/// a cascade delete has left a gap in its lineage ids, its `save` writes
/// the same `session.gea` and `lineage.txt` as a twin that never left
/// memory.
#[test]
fn a_restored_session_saves_what_its_never_spilled_twin_saves() {
    let (mut spilly, spill_handle) = common::serve(spill_config(temp_dir("twin_spill")));
    let (mut reference, ref_handle) = common::serve(plain_config());
    let (spilled_dir, twin_dir) = (temp_dir("twin_a"), temp_dir("twin_b"));
    for (client, dir) in [(&mut spilly, &spilled_dir), (&mut reference, &twin_dir)] {
        for line in [
            "open t demo 42",
            "dataset E brain",
            "dataset F breast",
            "delete F --cascade",
            "mine E a 50 3 6",
            "dataset C colon",
            &format!("save {}", dir.display()),
        ] {
            client.expect_ok(line).expect(line);
        }
    }
    let stats = spilly.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_restored") >= 1, "{stats}");
    for file in ["session.gea", "lineage.txt"] {
        let restored = std::fs::read(spilled_dir.join(file)).expect("spilled save");
        let twin = std::fs::read(twin_dir.join(file)).expect("twin save");
        assert!(restored == twin, "{file} of the restored session differs");
    }
    spill_handle.stop();
    ref_handle.stop();
    for dir in [spilled_dir, twin_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The `~N bytes` figure `sessions` lists for session `name`.
fn bytes_of(sessions: &str, name: &str) -> u64 {
    let prefix = format!("{name}: ");
    sessions
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit_once('~'))
        .and_then(|(_, n)| n.strip_suffix(" bytes"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no byte figure for {name} in {sessions:?}"))
}

/// `load` shares the replaced session's corpus only when the snapshot's is
/// the same, byte for byte, and either way the session answers as one
/// decoded from scratch: loading another seed's snapshot (the fallback)
/// replies exactly as a fresh server whose session already holds that
/// corpus (the shared path). Sharing moves no byte figure: each session
/// is still charged its whole source.
#[test]
fn load_shares_only_a_matching_source_and_charges_it_whole() {
    let (seed7, seed42) = (temp_dir("seed7"), temp_dir("seed42"));
    let (mut client, handle) = common::serve(plain_config());
    client.expect_ok("open other demo 7").expect("open");
    client.expect_ok("dataset E brain").expect("dataset");
    client
        .expect_ok(&format!("save {}", seed7.display()))
        .expect("save seed 7");
    client.expect_ok("close other").expect("close");

    client.expect_ok("open s demo 42").expect("open");
    for line in WRITE_SCRIPT {
        client.expect_ok(line).expect("build state");
    }
    client
        .expect_ok(&format!("save {}", seed42.display()))
        .expect("save seed 42");
    let before = bytes_of(&client.expect_ok("sessions").unwrap(), "s");
    client
        .expect_ok(&format!("load {}", seed42.display()))
        .expect("load own save");
    let after = bytes_of(&client.expect_ok("sessions").unwrap(), "s");
    // The figure a session reported here before sources were shared.
    assert_eq!((before, after), (PINNED_BYTES, PINNED_BYTES));

    let (mut fresh, fresh_handle) = common::serve(plain_config());
    fresh.expect_ok("open s demo 7").expect("open");
    let load = format!("load {}", seed7.display());
    let loaded = client.request(&load).expect("transport");
    assert!(loaded.is_ok(), "{loaded:?}");
    assert_eq!(loaded, fresh.request(&load).expect("transport"));
    for line in [
        "tissues",
        "cleaning",
        "lineage",
        "library 3",
        "dataset F brain",
        "mine F f 50 3 6",
        "fascicles",
    ] {
        assert_eq!(
            client.request(line).expect("transport"),
            fresh.request(line).expect("transport"),
            "the fallback load changed the reply to {line:?}"
        );
    }
    assert_eq!(
        bytes_of(&client.expect_ok("sessions").unwrap(), "s"),
        bytes_of(&fresh.expect_ok("sessions").unwrap(), "s")
    );

    handle.stop();
    fresh_handle.stop();
    for dir in [seed7, seed42] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `use` of a spilled name must not pay for the restore inline: it kicks
/// the restore onto a background thread (counted as a prefetch), answers
/// immediately, and the restore lands without any further request
/// touching the session.
#[test]
fn use_of_spilled_session_prefetches_in_the_background() {
    let (mut client, handle) = common::serve(spill_config(temp_dir("prefetch")));

    // The 1-byte budget spills the session as soon as `open` returns.
    client.expect_ok("open p demo 42").expect("open");
    let stats = client.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_spilled") >= 1, "{stats}");
    assert_eq!(stat(&stats, "sessions_prefetched"), 0, "{stats}");

    let msg = client.expect_ok("use p").expect("use answers immediately");
    assert!(msg.contains("using session p"), "{msg}");
    let stats = client.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_prefetched") >= 1, "{stats}");

    // The restore completes with no session-bound request issued: only the
    // background thread can be doing the work (`stats` never touches the
    // session registry entry).
    let mut restored = 0;
    for _ in 0..200 {
        restored = stat(&client.expect_ok("stats").unwrap(), "sessions_restored");
        if restored >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    assert!(restored >= 1, "background prefetch never landed");

    // And the prefetched session serves data correctly.
    assert!(client.request("tissues").unwrap().is_ok());
    let stats = client.expect_ok("stats").expect("stats");
    assert_eq!(stat(&stats, "spill_errors"), 0, "{stats}");

    handle.stop();
}

/// The verbs a pass draws from: reads, with enough writes to keep the
/// spill server churning through evict/restore cycles.
const VERBS: [&str; 8] = [
    "tissues",
    "lineage",
    "fascicles",
    "dataset",
    "comment",
    "delete",
    "show",
    "purity",
];

/// The nightly battery: randomized interleavings against a server whose
/// session is evicted to disk between essentially every pair of commands
/// must stay byte-identical to a never-evicting server.
#[test]
#[ignore = "spill battery: hundreds of evict/restore cycles; run via scripts/ci-nightly.sh"]
fn spill_battery_randomized_interleavings_stay_byte_identical() {
    const INTERLEAVINGS: usize = 25;
    const STEPS: usize = 8;

    let (mut spilly, spill_handle) = common::serve(spill_config(temp_dir("battery")));
    let (mut reference, ref_handle) = common::serve(plain_config());
    for client in [&mut spilly, &mut reference] {
        client.expect_ok("open battery demo 11").expect("open");
    }

    for iter in 0..INTERLEAVINGS {
        let mut gen = GqlGen::new(0x5B111 + iter as u64);
        let mut live = Vec::new();
        let mut script = Vec::new();
        for step in 0..STEPS {
            script.push(gen.step(&VERBS, format!("d{iter}_{step}"), &mut live));
        }
        for name in live {
            script.push(format!("delete {name} --cascade"));
        }
        for line in script {
            let restored = spilly.request(&line).expect("spill transport");
            let direct = reference.request(&line).expect("plain transport");
            assert_eq!(
                restored, direct,
                "spill/restore changed the reply to {line:?} (interleaving {iter})"
            );
        }
    }

    let stats = spilly.expect_ok("stats").expect("stats");
    assert!(stat(&stats, "sessions_restored") >= 1, "{stats}");
    assert_eq!(stat(&stats, "spill_errors"), 0, "{stats}");

    spill_handle.stop();
    ref_handle.stop();
}
