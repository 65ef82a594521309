//! The backend pool: per-backend health state with probe backoff, and
//! the connections a client handler (or the health thread) holds to
//! individual backends.
//!
//! Health is a pool-wide fact (`AtomicBool` per backend) so a transport
//! failure observed by one handler fails every other handler's pending
//! requests against that backend *fast* — they check `is_up` before
//! sending instead of discovering the loss one timeout at a time. The
//! health thread is the only writer that brings a backend back, and it
//! only does so after re-replicating every known session (see
//! [`crate::Router`]'s health loop).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gea_server::client::GeaClient;
use gea_server::wire::Reply;

/// Ceiling for the probe backoff so a restarted backend is never more
/// than a few seconds from re-admission.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// One configured backend's shared state.
pub(crate) struct BackendState {
    addr: String,
    up: AtomicBool,
    /// Consecutive failed probes, for exponential backoff.
    fails: AtomicU32,
    /// Millis since pool epoch before which a down backend is not probed.
    next_probe_ms: AtomicU64,
    /// Bumped on every re-admission, so handlers drop connections that
    /// predate a backend restart instead of failing once on the stale
    /// socket.
    admissions: AtomicU64,
}

/// The fixed, ordered set of configured backends. Order is identity:
/// shard *i* of a scatter always goes to the *i*-th healthy active
/// backend, and the active set is always the prefix `[0, active)`.
pub struct BackendPool {
    epoch: Instant,
    backends: Vec<BackendState>,
}

impl BackendPool {
    pub(crate) fn new(addrs: &[String]) -> BackendPool {
        BackendPool {
            epoch: Instant::now(),
            backends: addrs
                .iter()
                .map(|addr| BackendState {
                    addr: addr.clone(),
                    up: AtomicBool::new(true),
                    fails: AtomicU32::new(0),
                    next_probe_ms: AtomicU64::new(0),
                    admissions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of configured backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the pool is empty (it never is for a bound router).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The `i`-th backend's address.
    pub fn addr(&self, i: usize) -> &str {
        &self.backends[i].addr
    }

    /// Whether backend `i` is currently believed healthy.
    pub fn is_up(&self, i: usize) -> bool {
        self.backends[i].up.load(Ordering::SeqCst)
    }

    /// Record a transport failure against backend `i`: pending requests
    /// from every handler now fail fast instead of re-discovering the
    /// loss, and the health thread takes over re-admission.
    pub(crate) fn mark_down(&self, i: usize) {
        self.backends[i].up.store(false, Ordering::SeqCst);
    }

    /// Re-admit backend `i` (health thread only, after resync).
    pub(crate) fn mark_up(&self, i: usize) {
        self.backends[i].admissions.fetch_add(1, Ordering::SeqCst);
        self.backends[i].up.store(true, Ordering::SeqCst);
        self.backends[i].fails.store(0, Ordering::SeqCst);
        self.backends[i].next_probe_ms.store(0, Ordering::SeqCst);
    }

    /// The re-admission counter for backend `i`; a handler connection
    /// stamped with an older value predates a restart and must be
    /// re-established.
    pub(crate) fn admissions(&self, i: usize) -> u64 {
        self.backends[i].admissions.load(Ordering::SeqCst)
    }

    /// Whether a down backend's backoff window has elapsed.
    pub(crate) fn due_for_probe(&self, i: usize) -> bool {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        now_ms >= self.backends[i].next_probe_ms.load(Ordering::SeqCst)
    }

    /// Record a failed probe and push the next one out exponentially
    /// (base `interval`, capped at [`MAX_BACKOFF`]).
    pub(crate) fn note_probe_failure(&self, i: usize, interval: Duration) {
        let fails = self.backends[i].fails.fetch_add(1, Ordering::SeqCst) + 1;
        let backoff = interval
            .saturating_mul(1u32 << fails.min(6))
            .min(MAX_BACKOFF);
        let next = (self.epoch.elapsed() + backoff).as_millis() as u64;
        self.backends[i].next_probe_ms.store(next, Ordering::SeqCst);
    }
}

/// Resolve and connect with a bounded timeout.
fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One live connection to one backend, remembering which session the
/// backend-side connection is attached to (its server-side `current`),
/// so data commands can lazily re-align it after the client `use`s a
/// different session.
pub(crate) struct BackendConn {
    client: GeaClient,
    /// The backend connection's server-side current session. Servers
    /// initialize to `"default"`.
    pub(crate) session: String,
    /// [`BackendPool::admissions`] at connect time; a mismatch means the
    /// backend restarted underneath this connection.
    pub(crate) admission: u64,
}

/// Request lines a pipelined exchange keeps in flight on one connection.
/// Writing a whole batch before reading anything is only safe while the
/// replies not yet read fit the socket buffers — a backend blocked writing
/// a reply stops reading requests, and both ends wait forever. Every line
/// of a staged transfer answers with one short frame (`staged N bytes`),
/// so a window of this many lines leaves well under a kilobyte of replies
/// unread however large the transfer is; at the 64 KiB line ceiling it is
/// at most 1 MiB of requests ahead of the backend.
pub(crate) const WINDOW: usize = 16;

impl BackendConn {
    /// Connect within `timeout`, so a black-holed backend cannot hang a
    /// handler, and speak the protocol over that very socket.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> io::Result<BackendConn> {
        Ok(BackendConn {
            client: GeaClient::from_stream(connect_timeout(addr, timeout)?)?,
            session: "default".to_string(),
            admission: 0,
        })
    }

    /// One request/reply round trip.
    pub(crate) fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.client.request(line)
    }

    /// First half of a pipelined exchange: write the first [`WINDOW`]
    /// lines in one write and return without reading, so the caller can
    /// start the same exchange on other backends before waiting on this
    /// one. [`BackendConn::gather`] with the same lines must follow.
    pub(crate) fn send<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<()> {
        self.client.send_batch(&lines[..lines.len().min(WINDOW)])
    }

    /// Second half: read one reply per line, sending each line beyond the
    /// first window as a reply makes room for it. The outcome of the
    /// exchange is the first `ERR` among the replies if there is one —
    /// where a sender waiting on every reply would have stopped — and the
    /// last line's reply otherwise.
    pub(crate) fn gather<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Reply> {
        let mut unsent = lines.iter().skip(WINDOW);
        let mut outcome: Option<Reply> = None;
        for _ in lines {
            let reply = self.client.recv()?;
            if let Some(line) = unsent.next() {
                self.client.send_batch(std::slice::from_ref(line))?;
            }
            if !matches!(outcome, Some(Err(_))) {
                outcome = Some(reply);
            }
        }
        outcome.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty exchange"))
    }

    /// [`BackendConn::send`] then [`BackendConn::gather`] on this one
    /// connection.
    pub(crate) fn exchange<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Reply> {
        self.send(lines)?;
        self.gather(lines)
    }
}

/// One short-lived liveness probe: connect and `ping`. Any parseable
/// reply — even `ERR EBUSY` from a saturated server — counts as alive;
/// only transport failures are death.
pub(crate) fn probe(addr: &str, timeout: Duration) -> bool {
    let Ok(mut conn) = BackendConn::connect(addr, timeout) else {
        return false;
    };
    conn.request("ping").is_ok()
}
