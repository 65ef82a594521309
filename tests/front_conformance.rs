//! One battery for the shared connection front end (`gea_server::front`),
//! run against both daemons that sit on it: a `gea-server`, and a
//! `gea-router` over one backend. Whatever the front end promises a
//! client — lines reassembled across reads, a ceiling on line length,
//! `EBUSY` past the pool, silent blank lines, `quit`, draining on
//! shutdown — it promises on both.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use common::{spawn_router, spawn_server, Daemon};
use gea_router::RouterConfig;
use gea_server::front::{MAX_LINE, READ_POLL};
use gea_server::{GeaClient, ServerConfig};

/// The daemon under test, with the backend behind it when it is a router.
struct Fleet {
    /// `"server"` or `"router"`: what the daemon calls itself in `EBUSY`.
    kind: &'static str,
    front: Daemon,
    backend: Option<Daemon>,
}

impl Fleet {
    fn start(kind: &'static str, workers: usize, queue_depth: usize) -> Fleet {
        let addr = "127.0.0.1:0".to_string();
        match kind {
            "server" => Fleet {
                kind,
                front: spawn_server(ServerConfig {
                    addr,
                    workers,
                    queue_depth,
                    ..ServerConfig::default()
                }),
                backend: None,
            },
            _ => {
                let backend = spawn_server(ServerConfig {
                    addr: addr.clone(),
                    ..ServerConfig::default()
                });
                Fleet {
                    kind,
                    front: spawn_router(RouterConfig {
                        addr,
                        backends: vec![backend.addr.to_string()],
                        workers,
                        queue_depth,
                        ..RouterConfig::default()
                    }),
                    backend: Some(backend),
                }
            }
        }
    }

    fn stop(self) {
        self.front.stop();
        if let Some(backend) = self.backend {
            backend.stop();
        }
    }
}

/// Run `case` against a server, then against a router over one backend.
fn on_both_daemons(workers: usize, queue_depth: usize, case: impl Fn(&Fleet)) {
    for kind in ["server", "router"] {
        let fleet = Fleet::start(kind, workers, queue_depth);
        case(&fleet);
        fleet.stop();
    }
}

/// A raw connection whose reads give up (and fail the test) instead of
/// hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    stream
}

/// Everything the daemon sends until it closes the connection.
fn read_to_close(mut stream: &TcpStream) -> std::io::Result<String> {
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    Ok(text)
}

/// A client over a connection the test keeps: the connection stays open
/// when the client is dropped.
fn client(stream: &TcpStream) -> GeaClient {
    GeaClient::from_stream(stream.try_clone().expect("clone stream")).expect("client")
}

/// One `ping` round trip, which also proves a worker holds the connection.
fn ping(stream: &TcpStream) {
    assert_eq!(client(stream).expect_ok("ping").expect("ping"), "pong");
}

/// (a) A request written in two halves with a pause longer than the read
/// poll between them is reassembled and answered once.
#[test]
fn a_request_split_across_a_read_poll_is_answered_once() {
    on_both_daemons(2, 4, |fleet| {
        let stream = connect(fleet.front.addr);
        (&stream).write_all(b"pi").unwrap();
        std::thread::sleep(READ_POLL + Duration::from_millis(150));
        (&stream).write_all(b"ng\nquit\n").unwrap();
        assert_eq!(
            read_to_close(&stream).unwrap(),
            "OK 1\npong\nOK 1\nbye\n",
            "{}",
            fleet.kind
        );
    });
}

/// (b) A line that never ends is refused at the ceiling — the coded error
/// then EOF, or a reset that swallows it — and never hangs or harms the
/// daemon.
#[test]
fn an_endless_line_is_refused_not_buffered() {
    on_both_daemons(2, 4, |fleet| {
        let stream = connect(fleet.front.addr);
        let flood = vec![b'a'; 2 * MAX_LINE];
        let outcome = (&stream)
            .write_all(&flood)
            .and_then(|()| read_to_close(&stream));
        match outcome {
            Ok(text) => assert_eq!(text, "ERR EPARSE request line too long\n", "{}", fleet.kind),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "{} hung on an endless line: {e}",
                fleet.kind
            ),
        }
        ping(&connect(fleet.front.addr));
    });
}

/// (c) One worker, one queue slot, both held: the third connection is
/// refused with `EBUSY` naming the daemon, the server counts it, and the
/// queued connection is served once the worker frees up.
#[test]
fn a_connection_past_the_pool_reads_ebusy() {
    on_both_daemons(1, 1, |fleet| {
        let served = connect(fleet.front.addr);
        // Answered, so the one worker holds it and the queue is empty.
        ping(&served);
        let queued = connect(fleet.front.addr);
        let refused = connect(fleet.front.addr);
        assert_eq!(
            read_to_close(&refused).unwrap(),
            format!("ERR EBUSY {} saturated; try again later\n", fleet.kind)
        );
        if fleet.kind == "server" {
            let stats = client(&served).expect_ok("stats").unwrap();
            assert!(stats.contains("connections_rejected 1\n"), "{stats}");
        }
        drop(served);
        ping(&queued);
    });
}

/// (d) Blank and whitespace-only lines produce no frame: the pipelined
/// `ping` behind them is the first and only `pong`.
#[test]
fn blank_lines_get_no_reply() {
    on_both_daemons(2, 4, |fleet| {
        let stream = connect(fleet.front.addr);
        (&stream).write_all(b"\n   \nping\nquit\n").unwrap();
        assert_eq!(
            read_to_close(&stream).unwrap(),
            "OK 1\npong\nOK 1\nbye\n",
            "{}",
            fleet.kind
        );
    });
}

/// (e) `quit` answers `bye` and closes the connection.
#[test]
fn quit_says_bye_then_eof() {
    on_both_daemons(2, 4, |fleet| {
        let stream = connect(fleet.front.addr);
        (&stream).write_all(b"quit\n").unwrap();
        assert_eq!(
            read_to_close(&stream).unwrap(),
            "OK 1\nbye\n",
            "{}",
            fleet.kind
        );
    });
}

/// (f) `handle.shutdown()` severs an idle connection and `run()` returns
/// within a few read polls.
#[test]
fn handle_shutdown_drains_idle_connections() {
    for kind in ["server", "router"] {
        let fleet = Fleet::start(kind, 2, 4);
        let idle = connect(fleet.front.addr);
        ping(&idle);
        fleet.front.handle.shutdown();
        assert!(fleet.front.handle.is_shutting_down());
        assert_eq!(read_to_close(&idle).unwrap(), "", "{kind}: EOF, no frame");
        fleet.front.wait(8 * READ_POLL);
        if let Some(backend) = fleet.backend {
            backend.stop();
        }
    }
}

/// (g) The `shutdown` verb stops `run()`; through a router it stops the
/// backend too.
#[test]
fn the_shutdown_verb_stops_the_daemon() {
    for kind in ["server", "router"] {
        let fleet = Fleet::start(kind, 2, 4);
        let stream = connect(fleet.front.addr);
        (&stream).write_all(b"shutdown\n").unwrap();
        assert_eq!(
            read_to_close(&stream).unwrap(),
            "OK 1\nshutting down\n",
            "{kind}"
        );
        fleet.front.wait(Duration::from_secs(10));
        if let Some(backend) = fleet.backend {
            backend.wait(Duration::from_secs(10));
        }
    }
}
