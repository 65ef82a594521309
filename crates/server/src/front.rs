//! The inbound half of both daemons: bind, accept into a bounded worker
//! pool, reassemble request lines, write reply frames, drain on shutdown,
//! and turn SIGINT/SIGTERM into that shutdown. `gea-server` and
//! `gea-router` each implement [`Service`] and nothing else of this.
//! DESIGN.md, "Front-end note", has the contract and the reasons.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::linebuf::LineBuf;
use crate::wire::{self, Reply};

/// How often a worker blocked on an idle connection re-checks the
/// shutdown flag.
pub const READ_POLL: Duration = Duration::from_millis(250);

/// Requests longer than this are malformed; the connection is dropped
/// rather than buffering without bound.
pub const MAX_LINE: usize = 64 * 1024;

/// What the connection loop does after answering a request.
pub enum After {
    Continue,
    CloseConnection,
    /// Stop the whole daemon (the `shutdown` verb).
    Stop,
}

/// What a daemon brings to the front end: its per-connection state and
/// the one function that answers a request line.
pub trait Service: Send + Sync + 'static {
    /// State that lives as long as one client connection.
    type Conn;

    /// A connection reached a worker.
    fn open(&self) -> Self::Conn;

    /// Answer one request line (line ending removed). `None` is a line
    /// that gets no reply frame: blank, or a comment.
    fn answer(&self, conn: &mut Self::Conn, line: &str) -> (Option<Reply>, After);

    /// The connection [`Service::open`] was called for has ended.
    fn closed(&self) {}

    /// A connection was refused with `EBUSY`.
    fn refused(&self) {}
}

/// A handle for stopping a running daemon from another thread.
#[derive(Clone)]
pub struct Handle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Handle {
    /// Request shutdown and wake the acceptor.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running listener.
pub struct Front {
    listener: TcpListener,
    handle: Handle,
}

impl Front {
    /// Bind `addr` (port 0 picks an ephemeral port). No thread is spawned
    /// until [`Front::run`].
    pub fn bind(addr: &str) -> io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let flag = Arc::new(AtomicBool::new(false));
        Ok(Front {
            listener,
            handle: Handle { flag, addr },
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A shutdown handle; every clone shares the one flag.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Serve until shutdown is requested. Blocks the calling thread; the
    /// worker pool is joined before returning. `daemon` names the worker
    /// threads and the `EBUSY` refusal. The shutdown flag is raised on
    /// every way out, so threads that poll it always stop.
    pub fn run<S: Service>(
        self,
        daemon: &str,
        workers: usize,
        queue_depth: usize,
        service: Arc<S>,
    ) -> io::Result<()> {
        let Front { listener, handle } = self;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let pool = (0..workers.max(1))
            .map(|i| {
                let (rx, handle, service) = (Arc::clone(&rx), handle.clone(), Arc::clone(&service));
                std::thread::Builder::new()
                    .name(format!("gea-{daemon}-worker-{i}"))
                    .spawn(move || loop {
                        let stream = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        let Ok(stream) = stream else { break };
                        let mut conn = service.open();
                        let _ = serve(stream, &handle, &*service, &mut conn);
                        service.closed();
                    })
            })
            .collect::<io::Result<Vec<_>>>();
        if pool.is_ok() {
            for stream in listener.incoming() {
                if handle.is_shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        service.refused();
                        let busy = format!("{daemon} saturated; try again later");
                        let _ = wire::write_err(&mut stream, "EBUSY", &busy);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        }
        handle.flag.store(true, Ordering::SeqCst);
        drop(tx);
        for worker in pool? {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// One connection: read lines, answer each, until the peer hangs up, the
/// service closes it, or the daemon drains.
fn serve<S: Service>(
    mut stream: TcpStream,
    handle: &Handle,
    service: &S,
    conn: &mut S::Conn,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    // Reads poll so an idle connection notices shutdown; lines are
    // reassembled here instead of BufReader because a timed-out read_line
    // could lose a partial line.
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut pending = LineBuf::default();
    let mut chunk = [0u8; 4096];
    loop {
        let line = loop {
            if let Some(line) = pending.take_line() {
                break line;
            }
            if pending.len() > MAX_LINE {
                wire::write_err(&mut writer, "EPARSE", "request line too long")?;
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // client hung up
                Ok(n) => pending.extend(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if handle.is_shutting_down() {
                        return Ok(()); // draining; sever the idle connection
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let (reply, after) = service.answer(conn, line.trim_end_matches(['\n', '\r']));
        // One frame per reply through `wire`, unbuffered: the write pattern
        // is the benchmark's floor and changes only under ROADMAP 1B.
        match reply {
            Some(Ok(payload)) => wire::write_ok(&mut writer, &payload)?,
            Some(Err((code, message))) => wire::write_err(&mut writer, &code, &message)?,
            None => {}
        }
        match after {
            After::Continue => {
                if handle.is_shutting_down() {
                    return Ok(()); // draining: current request done, close
                }
            }
            After::CloseConnection => return Ok(()),
            After::Stop => {
                handle.shutdown();
                return Ok(());
            }
        }
    }
}

/// SIGINT/SIGTERM without external crates: the handler flips an atomic
/// and a watcher thread turns that into a graceful [`Handle::shutdown`].
pub mod signals {
    use super::{AtomicBool, Duration, Handle, Ordering};

    /// Set by the signal handler, polled by the watcher thread.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        // SAFETY: `signal` is libc's, declared with its C signature;
        // `on_signal` only stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// No signal routing off Unix; the `shutdown` verb still works.
    #[cfg(not(unix))]
    fn install() {}

    /// Route SIGINT and SIGTERM into `handle.shutdown()`, so in-flight
    /// requests (and eviction spills) finish before the process exits.
    pub fn watch(daemon: &'static str, handle: Handle) {
        install();
        let _ = std::thread::Builder::new()
            .name(format!("gea-{daemon}-signals"))
            .spawn(move || {
                while !handle.is_shutting_down() {
                    if SIGNALLED.load(Ordering::SeqCst) {
                        eprintln!("gea-{daemon}: termination signal received; draining");
                        handle.shutdown();
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
    }
}
