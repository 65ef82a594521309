//! Degradation-path smoke tests for `gea-router`: a backend killed under
//! the router surfaces one coded `ERR EBACKEND` (no hang, no partial
//! reply) and leaves every replica unmutated; a backend lost between the
//! compute and apply phases of a scatter costs the client nothing; a
//! restarted backend is re-admitted by the health thread only after a
//! full session resync, and participates in scatters again with
//! byte-identical replica state.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::Daemon;
use gea_router::RouterConfig;
use gea_server::{wire, GeaClient, ServerConfig};

fn spawn_backend_at(addr: &str) -> Daemon {
    common::spawn_server(ServerConfig {
        addr: addr.to_string(),
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
}

fn spawn_router(backends: Vec<String>, health_interval: Duration) -> Daemon {
    common::spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends,
        health_interval,
        connect_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

/// A backend dying under the router fails the in-flight scatter with a
/// single `ERR EBACKEND` — the compute phase is read-only, so no replica
/// applied anything — and the survivors keep serving.
#[test]
fn backend_killed_mid_scatter_surfaces_one_ebackend() {
    let backend_a = spawn_backend_at("127.0.0.1:0");
    let backend_b = spawn_backend_at("127.0.0.1:0");
    let (addr_a, addr_b) = (backend_a.addr, backend_b.addr);
    // A huge health interval: the *request path* must discover the loss
    // and fail fast, with no health thread to clean up after it.
    let router = spawn_router(
        vec![addr_a.to_string(), addr_b.to_string()],
        Duration::from_secs(3600),
    );

    let mut client = GeaClient::connect(router.addr).expect("connect client");
    client.expect_ok("open s demo 42").expect("open session");
    client.expect_ok("dataset E brain").expect("dataset");

    // Kill backend B with the router still believing it is up.
    backend_b.stop();

    // The scatter discovers the loss: exactly one coded error, the
    // connection survives, and nothing was applied anywhere.
    let reply = client.request("mine E a 50 3 6").expect("no hang");
    let (code, msg) = reply.expect_err("scatter against a dead backend must fail");
    assert_eq!(code, "EBACKEND", "{msg}");

    let fascicles = client.expect_ok("fascicles").expect("read after failure");
    assert!(
        !fascicles.contains("a_1"),
        "aborted scatter leaked partial state: {fascicles}"
    );

    // The failure marked B down, so the retry runs on the survivor alone
    // and succeeds.
    let mined = client
        .expect_ok("mine E a 50 3 6")
        .expect("retry on survivor");
    assert!(mined.contains("fascicle"), "{mined}");
    let listing = client.expect_ok("backends").expect("health listing");
    assert!(listing.contains("down"), "{listing}");

    router.stop();
    backend_a.stop();
}

/// A restarted backend is probed back to life, resynced (every known
/// session shipped as a snapshot), and re-admitted: scatters include it
/// again and its replica is byte-identical to the survivor's.
#[test]
fn restarted_backend_is_readmitted_with_identical_state() {
    let backend_a = spawn_backend_at("127.0.0.1:0");
    let backend_b = spawn_backend_at("127.0.0.1:0");
    let (addr_a, addr_b) = (backend_a.addr, backend_b.addr);
    let router = spawn_router(
        vec![addr_a.to_string(), addr_b.to_string()],
        Duration::from_millis(100),
    );

    let mut client = GeaClient::connect(router.addr).expect("connect client");
    client.expect_ok("open s demo 42").expect("open session");
    client.expect_ok("dataset E brain").expect("dataset");
    client.expect_ok("mine E a 50 3 6").expect("mine over both");

    // Kill B; the health thread notices within its probe interval.
    backend_b.stop();
    wait_until(
        "health thread to mark the backend down",
        Duration::from_secs(10),
        || {
            client
                .expect_ok("backends")
                .is_ok_and(|listing| listing.contains("down"))
        },
    );

    // Writes keep landing while B is gone; B must learn them on return.
    client.expect_ok("groups a_1").expect("groups on survivor");
    client
        .expect_ok("gap g a_1CancerFasTbl a_1NormalTable")
        .expect("gap on survivor");

    // Restart B on the same address; re-admission requires the resync to
    // have completed, not just the probe to succeed.
    let backend_b2 = spawn_backend_at(&addr_b.to_string());
    wait_until(
        "restarted backend to be re-admitted",
        Duration::from_secs(30),
        || {
            client
                .expect_ok("backends")
                .is_ok_and(|listing| !listing.contains("down"))
        },
    );

    // A scatter now spans both backends again and must succeed first try
    // (stale pre-restart connections are invalidated by the admission
    // stamp, not by a sacrificial failure).
    let mined = client
        .expect_ok("mine E m with isa seeds=6 t_tags=0.8 t_libs=0.8")
        .expect("scatter after re-admission");
    assert!(mined.contains("cluster"), "{mined}");

    // Bypass the router: both replicas must answer the same bytes for the
    // resynced session, including its full lineage.
    let mut direct_a = GeaClient::connect(addr_a).expect("connect backend a");
    let mut direct_b = GeaClient::connect(addr_b).expect("connect backend b");
    for probe in [
        "use s",
        "fascicles",
        "show sumy a_1CancerFasTbl 3",
        "show gap g 3",
        "lineage",
    ] {
        let a = direct_a.request(probe).expect("backend a answers");
        let b = direct_b.request(probe).expect("backend b answers");
        assert_eq!(a, b, "replicas diverged on {probe:?}");
    }

    router.stop();
    backend_a.stop();
    backend_b2.stop();
}

/// What the fault-injecting relay in front of a backend does next.
const RELAY: u8 = 0;
/// Answer the next `xpart`, then close the connection it arrived on.
const DIE_AFTER_XPART: u8 = 1;
/// Close every connection as soon as it is accepted.
const DEAD: u8 = 2;
/// Stop accepting and wait for the connections to end.
const STOP: u8 = 3;

/// A line-level relay in front of a backend: each accepted connection
/// gets its own backend connection, so per-connection server state
/// (current session, staging buffer) behaves exactly as without the
/// relay. The mode byte scripts the fault.
struct FaultRelay {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    accepting: JoinHandle<()>,
}

impl FaultRelay {
    fn spawn(backend: SocketAddr) -> FaultRelay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().expect("relay address");
        let mode = Arc::new(AtomicU8::new(RELAY));
        let accept_mode = Arc::clone(&mode);
        let accepting = std::thread::spawn(move || {
            let mut connections = Vec::new();
            for stream in listener.incoming() {
                match accept_mode.load(Ordering::SeqCst) {
                    STOP => break,
                    DEAD => continue,
                    _ => {}
                }
                let stream = stream.expect("accept");
                let mode = Arc::clone(&accept_mode);
                connections.push(std::thread::spawn(move || {
                    relay_connection(stream, backend, &mode)
                }));
            }
            for connection in connections {
                connection.join().expect("relay connection thread");
            }
        });
        FaultRelay {
            addr,
            mode,
            accepting,
        }
    }

    fn set(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
    }

    /// Call once the router is gone: its closed connections are what ends
    /// the relay's connection threads.
    fn stop(self) {
        self.set(STOP);
        let _ = TcpStream::connect(self.addr);
        self.accepting.join().expect("relay accept thread");
    }
}

fn relay_connection(stream: TcpStream, backend: SocketAddr, mode: &AtomicU8) {
    let Ok(mut upstream) = GeaClient::connect(backend) else {
        return;
    };
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let Ok(reply) = upstream.request(&line) else {
            return;
        };
        let written = match reply {
            Ok(payload) => wire::write_ok(&mut writer, &payload),
            Err((code, msg)) => wire::write_err(&mut writer, &code, &msg),
        };
        if written.is_err() {
            return;
        }
        if line.starts_with("xpart ")
            && mode
                .compare_exchange(DIE_AFTER_XPART, DEAD, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return;
        }
    }
}

/// `xsnapshot <session>`'s fingerprint, asked of a backend directly.
fn fingerprint(backend: SocketAddr, session: &str) -> String {
    let mut direct = GeaClient::connect(backend).expect("connect backend");
    let snap = direct
        .expect_ok(&format!("xsnapshot {session}"))
        .expect("xsnapshot");
    let header = snap.lines().next().expect("snapshot header");
    header
        .split_whitespace()
        .nth(1)
        .expect("fingerprint")
        .to_string()
}

/// A backend that answers its `xpart` and then dies is lost in the apply
/// phase, after the point of no return: the survivor installs the merged
/// result and its reply is the client's, the lost backend is marked down,
/// and re-admission brings its replica back to the survivor's bytes.
#[test]
fn backend_lost_after_compute_is_resynced_behind_a_normal_reply() {
    let backend_a = spawn_backend_at("127.0.0.1:0");
    let backend_b = spawn_backend_at("127.0.0.1:0");
    let (addr_a, addr_b) = (backend_a.addr, backend_b.addr);
    let relay_b = FaultRelay::spawn(addr_b);
    let router = spawn_router(
        vec![addr_a.to_string(), relay_b.addr.to_string()],
        Duration::from_millis(100),
    );

    let mut client = GeaClient::connect(router.addr).expect("connect client");
    client.expect_ok("open s demo 42").expect("open session");
    client.expect_ok("dataset E brain").expect("dataset");
    // A cascade delete leaves a gap in the lineage ids: the resynced
    // replica must keep the survivor's ids, not renumber past the gap.
    client.expect_ok("dataset F breast").expect("dataset");
    client
        .expect_ok("delete F --cascade")
        .expect("cascade delete");

    relay_b.set(DIE_AFTER_XPART);
    let mined = client
        .expect_ok("mine E a 50 3 6")
        .expect("the survivor's reply, not an error");
    assert!(mined.contains("fascicle"), "{mined}");
    assert_eq!(
        relay_b.mode.load(Ordering::SeqCst),
        DEAD,
        "the fault never fired"
    );
    let listing = client.expect_ok("backends").expect("health listing");
    assert!(listing.contains("down"), "{listing}");
    // B computed its shard but never installed the merge.
    assert_ne!(fingerprint(addr_a, "s"), fingerprint(addr_b, "s"));

    // Writes keep landing on the survivor; then B comes back.
    client.expect_ok("groups a_1").expect("groups on survivor");
    relay_b.set(RELAY);
    wait_until(
        "lost backend to be re-admitted",
        Duration::from_secs(30),
        || {
            client
                .expect_ok("backends")
                .is_ok_and(|listing| !listing.contains("down"))
        },
    );
    assert_eq!(fingerprint(addr_a, "s"), fingerprint(addr_b, "s"));

    router.stop();
    relay_b.stop();
    backend_a.stop();
    backend_b.stop();
}
