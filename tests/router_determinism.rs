//! The router's determinism bar: a `gea-router` fronting {1, 2, 3}
//! `gea-server` backends must produce **byte-identical wire transcripts**
//! to a single-process server, for every verb — the scattered ones
//! (`mine`, `groups`, `populate <name> <sumy> <dataset>`), the replicated
//! writes (table algebra, simplex mining, `delete`), the session-affine
//! reads (`show`, `topgap`, `lineage`, `check`), and the error paths
//! (EPARSE, ENOTFOUND, ECONFLICT, ENOSESSION). A `rebalance` from 2 to 3
//! backends mid-script must not perturb a single subsequent byte either,
//! and below the wire every replica's `session.gea` snapshot must
//! fingerprint like the single server's.
//!
//! Transcripts are captured raw off the socket (status line + payload
//! lines), so this proves identity of the actual bytes on the wire, not
//! of some parsed form.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use common::Daemon;
use gea_router::RouterConfig;
use gea_server::ServerConfig;

fn spawn_backend() -> Daemon {
    common::spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
}

fn spawn_backends(n: usize) -> Vec<Daemon> {
    (0..n).map(|_| spawn_backend()).collect()
}

fn spawn_router(backends: &[Daemon], active: usize) -> Daemon {
    common::spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|b| b.addr.to_string()).collect(),
        active,
        health_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
}

/// Stop the router, then every backend behind it.
fn stop_fleet(router: Daemon, backends: Vec<Daemon>) {
    router.stop();
    for backend in &backends {
        backend.stop();
    }
}

/// One persistent connection; every request's raw reply frame (status
/// line plus payload lines, byte for byte) is appended to the transcript.
struct Transcript {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    text: String,
}

impl Transcript {
    fn connect(addr: SocketAddr) -> Transcript {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone stream");
        Transcript {
            reader: BufReader::new(stream),
            writer,
            text: String::new(),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("read status");
        assert!(!status.is_empty(), "connection closed answering {line:?}");
        self.text.push_str(&status);
        if let Some(rest) = status.strip_prefix("OK ") {
            let k: usize = rest.trim().parse().expect("payload count");
            for _ in 0..k {
                let mut payload = String::new();
                self.reader.read_line(&mut payload).expect("read payload");
                self.text.push_str(&payload);
            }
        }
    }

    fn run(&mut self, script: &[&str]) {
        for line in script {
            self.send(line);
        }
    }

    /// [`Self::send`], returning the frame it appended.
    fn reply(&mut self, line: &str) -> String {
        let at = self.text.len();
        self.send(line);
        self.text[at..].to_string()
    }

    /// A refused `mine` leaves nothing behind. With a data set squatting
    /// on `w_2`, the five-cluster ISA mine under base name `w` is refused
    /// at its second cluster — and `fascicles` must not list a `w_1`.
    fn refused_mine_is_atomic(&mut self) {
        self.send("dataset w_2 brain");
        let before = self.reply("fascicles");
        let refused = self.reply("mine E w with isa seeds=6 t_tags=0.8 t_libs=0.8");
        assert!(
            refused.starts_with("ERR ECONFLICT") && refused.contains("\"w_2\""),
            "{refused}"
        );
        assert_eq!(
            self.reply("fascicles"),
            before,
            "a refused mine left tables"
        );
    }

    /// `xprofiler` pools the cancerous libraries against the normal ones;
    /// the pure-cancer fascicle `a_1` has no normal pool, which is refused
    /// as a session's own `xprofiler` refuses an empty pool, and the
    /// connection keeps serving.
    fn xprofiler_needs_both_pools(&mut self) {
        assert_eq!(
            self.reply("xprofiler a_1"),
            "ERR EEMPTY xProfiler pool selected no libraries\n"
        );
        assert_eq!(self.reply("ping"), "OK 1\npong\n");
    }
}

/// The full-pipeline script: every routing class is represented.
fn main_script() -> Vec<&'static str> {
    vec![
        // Session control (replicated) and its error path.
        "open s demo 42",
        "use nosuch",
        "use s",
        "sessions",
        // Table algebra: replicated writes.
        "dataset E brain",
        // Scatterable verbs: fascicle mining, control groups, populate.
        "mine E a 50 3 6",
        "fascicles",
        "purity a_1",
        "groups a_1",
        "populate P a_1CancerFasTbl E",
        // GAP algebra and reads: session-affine home backend.
        "gap g a_1CancerFasTbl a_1NormalTable",
        "topgap g 5",
        "show gap g 3",
        "show sumy a_1CancerFasTbl 3",
        "xprofiler E",
        // Pluggable mining backends: isa scatters, simplex replicates.
        "mine E m with isa seeds=6 t_tags=0.8 t_libs=0.8",
        "mine E sx with simplex k=2",
        // Contents-only delete, then lineage re-materialization.
        "delete P",
        "populate P",
        // Mixed intensional script: static analysis, no execution.
        "check dataset X brain ; mine X b 50 3 6 ; purity b_1",
        // Pure reads.
        "tissues",
        "cleaning",
        "lineage",
        // Error paths: relayed (ENOTFOUND) and raw-forwarded (EPARSE).
        "gap gx missing1 missing2",
        "bogus cmd",
        "mine",
        // Scattered verbs fail like the single server does, check for
        // check: a taken name wins over a missing input, and a missing
        // input is found before anything is computed.
        "populate P no_such_sumy E",
        "populate P a_1CancerFasTbl nosuchE",
        "populate Q no_such_sumy E",
        "mine E a 50 3 6",
        "mine nosuchE z 50 3 6",
        "mine E m with isa seeds=6 t_tags=0.8 t_libs=0.8",
        "mine nosuchE z with isa seeds=6",
        "groups a_1",
        "groups nosuch_1",
        "ping",
    ]
}

/// Commands run *after* the 2→3 rebalance in the rebalance test; the
/// single-process reference runs them in the same breath.
fn follow_up_script() -> Vec<&'static str> {
    vec![
        "mine E a2 50 3 6",
        "groups a2_1",
        "gap h a2_1CancerFasTbl a2_1NormalTable",
        "topgap h 3",
        "show sumy a2_1NormalTable 2",
        "lineage",
    ]
}

/// The fingerprint of `session`'s snapshot on the server at `addr`,
/// asked directly (`xsnapshot` replies `<generation> <fingerprint>` and
/// then the hex-armored bytes).
fn snapshot_fingerprint(addr: SocketAddr, session: &str) -> String {
    let mut direct = Transcript::connect(addr);
    direct.send(&format!("xsnapshot {session}"));
    let header = direct.text.lines().nth(1).expect("xsnapshot header line");
    let fingerprint = header.split_whitespace().nth(1).expect("fingerprint");
    fingerprint.to_string()
}

#[test]
fn router_matches_single_server_over_1_2_3_backends() {
    let script = main_script();

    // Reference: one plain server.
    let single = spawn_backend();
    let mut reference = Transcript::connect(single.addr);
    reference.run(&script);
    reference.refused_mine_is_atomic();
    reference.xprofiler_needs_both_pools();
    let ref_fingerprint = snapshot_fingerprint(single.addr, "s");
    single.stop();

    for n_backends in 1..=3usize {
        let backends = spawn_backends(n_backends);
        let router = spawn_router(&backends, 0);

        let mut routed = Transcript::connect(router.addr);
        // The admin plane answers locally and is not part of the
        // transcript comparison.
        let mut admin = Transcript::connect(router.addr);
        admin.send("backends");
        assert_eq!(
            admin.text.lines().next(),
            Some(format!("OK {n_backends}").as_str()),
            "backends listing over {n_backends} backend(s)"
        );
        assert_eq!(admin.text.matches(" up").count(), n_backends);

        routed.run(&script);
        routed.refused_mine_is_atomic();
        routed.xprofiler_needs_both_pools();
        assert_eq!(
            routed.text, reference.text,
            "wire transcript diverged over {n_backends} backend(s)"
        );
        // Routed ≡ direct below the wire too: tables, fascicle records
        // and lineage (params included) of every replica snapshot to the
        // bytes the single server's session does.
        for backend in &backends {
            assert_eq!(
                snapshot_fingerprint(backend.addr, "s"),
                ref_fingerprint,
                "snapshot of backend {} (of {n_backends}) diverged from the single server",
                backend.addr
            );
        }

        stop_fleet(router, backends);
    }
}

/// The shipped example scripts, each replayed in a session named after it.
const EXAMPLE_SCRIPTS: &[(&str, &str)] = &[
    (
        "brain_case_study",
        include_str!("../examples/scripts/brain_case_study.gql"),
    ),
    (
        "mine_backends",
        include_str!("../examples/scripts/mine_backends.gql"),
    ),
];

/// A script's wire-sendable lines: comments and blanks dropped (the
/// server sends no reply for them), and the front end's `load-demo
/// <seed>` spelled as its wire equivalent, `open <session> demo <seed>`.
fn wire_lines(session: &str, text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| match l.strip_prefix("load-demo ") {
            Some(seed) => format!("open {session} demo {seed}"),
            None => l.to_string(),
        })
        .collect()
}

/// Every example script replayed on one connection to `addr`.
fn replay_examples(addr: SocketAddr) -> String {
    let mut client = Transcript::connect(addr);
    for (session, text) in EXAMPLE_SCRIPTS {
        for line in wire_lines(session, text) {
            client.send(&line);
        }
    }
    client.text
}

#[test]
fn example_scripts_are_byte_identical_through_the_router() {
    let single = spawn_backend();
    let reference = replay_examples(single.addr);
    let ref_fingerprints: Vec<String> = EXAMPLE_SCRIPTS
        .iter()
        .map(|(session, _)| snapshot_fingerprint(single.addr, session))
        .collect();
    single.stop();
    assert!(!reference.contains("ERR "), "{reference}");

    for n_backends in 1..=2usize {
        let backends = spawn_backends(n_backends);
        let router = spawn_router(&backends, 0);
        assert_eq!(
            replay_examples(router.addr),
            reference,
            "example transcript diverged over {n_backends} backend(s)"
        );
        for backend in &backends {
            for ((session, _), fingerprint) in EXAMPLE_SCRIPTS.iter().zip(&ref_fingerprints) {
                assert_eq!(
                    &snapshot_fingerprint(backend.addr, session),
                    fingerprint,
                    "snapshot of {session} on backend {} (of {n_backends}) diverged",
                    backend.addr
                );
            }
        }
        stop_fleet(router, backends);
    }
}

/// Satellite of the effect/cost-table work: `check` is classified by the
/// verb-effect table as a pure, cacheable read, so the router forwards it
/// to the session's home backend — but *every* replica must be able to
/// answer it with the same bytes, including the appended cost section
/// (whose seed is the session's live table sizes). This queries each
/// backend directly, bypassing the router's affinity, and also proves the
/// analysis mutates nothing: the lineage view of every replica is
/// byte-identical before and after the checks.
#[test]
fn check_diagnostics_are_byte_identical_on_every_backend_and_mutate_nothing() {
    let prelude = [
        "open s demo 42",
        "use s",
        "dataset E brain",
        "mine E a 50 3 6",
        "groups a_1",
    ];
    let checks = [
        // Clean pipeline: diagnostics plus the predicted-cost section.
        "check gap g a_1CancerFasTbl a_1NormalTable ; topgap g 3",
        // Clean pipeline over names the check itself defines.
        "check dataset X brain ; mine X b 50 3 6 ; purity b_1",
        // Error diagnostics: undefined names against the live session.
        "check purity nope ; groups also_nope",
        // A query-domain diagnostic: query 7 needs both gap columns,
        // which `difference` does not carry.
        "check gap x a_1CancerFasTbl a_1NormalTable ; gap y a_1CancerFasTbl a_1CanNotInFasTbl ; compare c x y difference 7",
    ];

    let backends = spawn_backends(3);
    let router = spawn_router(&backends, 0);

    // Replicate a session with real tables onto every backend.
    let mut routed = Transcript::connect(router.addr);
    routed.run(&prelude);

    // Each backend answers the same checks directly, with identical
    // lineage on both sides of the analysis.
    let mut check_replies: Vec<String> = Vec::new();
    let mut lineages: Vec<String> = Vec::new();
    for addr in backends.iter().map(|b| b.addr) {
        let mut direct = Transcript::connect(addr);
        direct.send("use s");
        direct.text.clear();
        direct.send("lineage");
        let lineage_before = std::mem::take(&mut direct.text);
        direct.run(&checks);
        let replies = std::mem::take(&mut direct.text);
        direct.send("lineage");
        assert_eq!(
            lineage_before, direct.text,
            "check mutated a replica on {addr}"
        );
        check_replies.push(replies);
        lineages.push(lineage_before);
    }
    for (i, reply) in check_replies.iter().enumerate() {
        assert_eq!(
            reply, &check_replies[0],
            "check diagnostics diverged between backend 0 and backend {i}"
        );
        assert_eq!(
            lineages[i], lineages[0],
            "replica lineage diverged between backend 0 and backend {i}"
        );
    }
    // The clean pipelines surfaced the cost interpretation; the dirty
    // ones surfaced diagnostics without one.
    assert!(
        check_replies[0].contains("predicted cost"),
        "{}",
        check_replies[0]
    );
    assert!(check_replies[0].contains("error[undefined-name]"));
    assert!(check_replies[0].contains("error[query-domain]"));

    stop_fleet(router, backends);
}

#[test]
fn rebalance_2_to_3_preserves_byte_identity() {
    let before = main_script();
    let after = follow_up_script();

    // Reference: one plain server runs both halves back to back.
    let single = spawn_backend();
    let mut reference = Transcript::connect(single.addr);
    reference.run(&before);
    reference.run(&after);
    single.stop();

    // Router: 3 configured backends, only 2 active for the first half.
    let backends = spawn_backends(3);
    let router = spawn_router(&backends, 2);

    let mut routed = Transcript::connect(router.addr);
    routed.run(&before);

    // Grow to 3: the standby gets every session shipped as a snapshot
    // (the spill wire format) under a generation check.
    let mut admin = Transcript::connect(router.addr);
    admin.send("rebalance 3");
    assert!(
        admin.text.contains("rebalanced to 3 active backend(s)"),
        "unexpected rebalance reply: {}",
        admin.text
    );
    admin.text.clear();
    admin.send("backends");
    assert_eq!(admin.text.matches(" up").count(), 3, "{}", admin.text);
    assert!(!admin.text.contains("standby"), "{}", admin.text);

    // The second half now scatters over 3 backends; not one byte moves.
    routed.run(&after);
    assert_eq!(
        routed.text, reference.text,
        "transcript diverged after rebalancing 2 -> 3"
    );

    stop_fleet(router, backends);
}

/// Below the wire too: the same lines through `gea-cli`'s batch mode, one
/// `gea-server`, and a `gea-router` over two backends `save` the same
/// bytes — `lineage.txt` (params included) and the `session.gea`
/// snapshot. A command runs one way from every front end, so there is no
/// front-end-specific lineage param (the retired batch planner stamped
/// `optimizer fuse-…` on the adjacent pairs below) to tell them apart.
#[test]
fn every_front_end_saves_the_same_bytes() {
    let lines = [
        "dataset Eb brain",
        "mine Eb f 50 3 6",
        "groups f_1",
        "gap ga f_1CancerFasTbl f_1NormalTable",
        "topgap ga 5",
        "populate P f_1CancerFasTbl Eb",
        "select S P SAGE_brain_C00",
        "compare cd ga ga difference 4",
    ];
    let root = std::env::temp_dir().join(format!("gea_front_ends_{}", std::process::id()));
    let dir = |front: &str| root.join(front).display().to_string();

    let mut cli = gea::cli::Cli::new();
    let script = format!("load-demo 42\n{}\nsave {}\n", lines.join("\n"), dir("cli"));
    let outcomes = cli.run_script(&script);
    assert_eq!(outcomes.len(), lines.len() + 2, "{outcomes:?}");
    assert!(outcomes.iter().all(|(_, r)| r.is_ok()), "{outcomes:?}");

    let served = |addr: SocketAddr, front: &str| {
        let mut client = Transcript::connect(addr);
        client.send("open s demo 42");
        client.run(&lines);
        client.send(&format!("save {}", dir(front)));
        assert!(!client.text.contains("ERR "), "{front}: {}", client.text);
        client.text
    };
    let single = spawn_backend();
    let direct = served(single.addr, "server");
    single.stop();
    let backends = spawn_backends(2);
    let router = spawn_router(&backends, 0);
    let routed = served(router.addr, "router");
    stop_fleet(router, backends);
    let before_save = |text: &str| text[..text.rfind("OK ").expect("save reply")].to_string();
    assert_eq!(before_save(&direct), before_save(&routed));

    for file in ["lineage.txt", "session.gea"] {
        let read = |front: &str| {
            std::fs::read(root.join(front).join(file))
                .unwrap_or_else(|e| panic!("{front}/{file}: {e}"))
        };
        let cli_bytes = read("cli");
        assert!(
            cli_bytes == read("server"),
            "{file}: gea-cli --script and gea-server saved different bytes"
        );
        assert!(
            cli_bytes == read("router"),
            "{file}: gea-cli --script and gea-router saved different bytes"
        );
    }
    let lineage = std::fs::read_to_string(root.join("cli").join("lineage.txt")).unwrap();
    assert!(lineage.contains("optimizer\tself-minus-empty"), "{lineage}");
    assert!(!lineage.contains("fuse-"), "{lineage}");
    std::fs::remove_dir_all(&root).unwrap();
}
