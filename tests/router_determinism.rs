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

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use gea_router::{Router, RouterConfig, RouterHandle};
use gea_server::{Server, ServerConfig, ServerHandle};

fn spawn_backend() -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .expect("bind backend");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve backend"));
    (addr, handle, join)
}

fn spawn_router(
    backends: Vec<String>,
    active: usize,
) -> (SocketAddr, RouterHandle, JoinHandle<()>) {
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends,
        active,
        health_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr();
    let handle = router.handle();
    let join = std::thread::spawn(move || router.run().expect("serve router"));
    (addr, handle, join)
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

/// The fingerprint of session `s`'s snapshot on the server at `addr`,
/// asked directly (`xsnapshot` replies `<generation> <fingerprint>` and
/// then the hex-armored bytes).
fn snapshot_fingerprint(addr: SocketAddr) -> String {
    let mut direct = Transcript::connect(addr);
    direct.send("xsnapshot s");
    let header = direct.text.lines().nth(1).expect("xsnapshot header line");
    let fingerprint = header.split_whitespace().nth(1).expect("fingerprint");
    fingerprint.to_string()
}

#[test]
fn router_matches_single_server_over_1_2_3_backends() {
    let script = main_script();

    // Reference: one plain server.
    let (ref_addr, ref_handle, ref_join) = spawn_backend();
    let mut reference = Transcript::connect(ref_addr);
    reference.run(&script);
    let ref_fingerprint = snapshot_fingerprint(ref_addr);
    ref_handle.shutdown();

    for n_backends in 1..=3usize {
        let mut backends = Vec::new();
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..n_backends {
            let (addr, handle, join) = spawn_backend();
            backends.push(addr);
            handles.push(handle);
            joins.push(join);
        }
        let (router_addr, router_handle, router_join) =
            spawn_router(backends.iter().map(|a| a.to_string()).collect(), 0);

        let mut routed = Transcript::connect(router_addr);
        // The admin plane answers locally and is not part of the
        // transcript comparison.
        let mut admin = Transcript::connect(router_addr);
        admin.send("backends");
        assert_eq!(
            admin.text.lines().next(),
            Some(format!("OK {n_backends}").as_str()),
            "backends listing over {n_backends} backend(s)"
        );
        assert_eq!(admin.text.matches(" up").count(), n_backends);

        routed.run(&script);
        assert_eq!(
            routed.text, reference.text,
            "wire transcript diverged over {n_backends} backend(s)"
        );
        // Routed ≡ direct below the wire too: tables, fascicle records
        // and lineage (params included) of every replica snapshot to the
        // bytes the single server's session does.
        for &backend in &backends {
            assert_eq!(
                snapshot_fingerprint(backend),
                ref_fingerprint,
                "snapshot of backend {backend} (of {n_backends}) diverged from the single server"
            );
        }

        router_handle.shutdown();
        router_join.join().expect("router thread");
        for handle in &handles {
            handle.shutdown();
        }
        for join in joins {
            join.join().expect("backend thread");
        }
    }

    ref_join.join().expect("reference backend thread");
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
        // Parameter-domain diagnostics (k% > 100, min_records = 0).
        "check mine E big 150 0 6",
    ];

    let mut backends = Vec::new();
    let mut handles = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..3 {
        let (addr, handle, join) = spawn_backend();
        backends.push(addr);
        handles.push(handle);
        joins.push(join);
    }
    let (router_addr, router_handle, router_join) =
        spawn_router(backends.iter().map(|a| a.to_string()).collect(), 0);

    // Replicate a session with real tables onto every backend.
    let mut routed = Transcript::connect(router_addr);
    routed.run(&prelude);

    // Each backend answers the same checks directly, with identical
    // lineage on both sides of the analysis.
    let mut check_replies: Vec<String> = Vec::new();
    let mut lineages: Vec<String> = Vec::new();
    for &addr in &backends {
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
    assert!(check_replies[0].contains("error[param-domain]"));

    router_handle.shutdown();
    router_join.join().expect("router thread");
    for handle in &handles {
        handle.shutdown();
    }
    for join in joins {
        join.join().expect("backend thread");
    }
}

#[test]
fn rebalance_2_to_3_preserves_byte_identity() {
    let before = main_script();
    let after = follow_up_script();

    // Reference: one plain server runs both halves back to back.
    let (ref_addr, ref_handle, ref_join) = spawn_backend();
    let mut reference = Transcript::connect(ref_addr);
    reference.run(&before);
    reference.run(&after);
    ref_handle.shutdown();

    // Router: 3 configured backends, only 2 active for the first half.
    let mut backends = Vec::new();
    let mut handles = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..3 {
        let (addr, handle, join) = spawn_backend();
        backends.push(addr.to_string());
        handles.push(handle);
        joins.push(join);
    }
    let (router_addr, router_handle, router_join) = spawn_router(backends, 2);

    let mut routed = Transcript::connect(router_addr);
    routed.run(&before);

    // Grow to 3: the standby gets every session shipped as a snapshot
    // (the spill wire format) under a generation check.
    let mut admin = Transcript::connect(router_addr);
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

    router_handle.shutdown();
    router_join.join().expect("router thread");
    for handle in &handles {
        handle.shutdown();
    }
    for join in joins {
        join.join().expect("backend thread");
    }
    ref_join.join().expect("reference backend thread");
}
