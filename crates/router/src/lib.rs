//! # gea-router — a distributed shard router over `gea-server` backends
//!
//! One front end speaking the exact GQL line protocol, fanned out over N
//! `gea-server` backends. Clients are met by the connection front end the
//! server uses ([`gea_server::front`]; DESIGN.md, "Front-end note"); this
//! crate is what answers a line. The deployment model is **replication plus
//! scatter**: every active backend holds an identical replica of every
//! session (writes are broadcast in a fixed order), and the expensive
//! scan-shaped verbs — `mine`, `populate <name> <sumy> <dataset>`, and
//! `groups` — are *scattered*: each backend computes one contiguous
//! stable-order shard of the work (`ShardPlan` semantics, via the
//! server's `xpart` verb), the router gathers the partial blobs in shard
//! order, and every backend then applies the identical merged result
//! (`xapply`) through `gea_exec::scatter::install`, whose `Partial::merge`
//! concatenates the partials in shard order as the in-process sharded
//! drivers do. Because the merge is concatenation of contiguous
//! stable-order ranges, the gathered result is byte-identical to a single
//! process executing the command serially, for **any** number of
//! backends.
//!
//! Routing table:
//!
//! * **Reads** (`show`, `gap` algebra, `check`, `lineage`, `stats`, …) go
//!   to a session-affine *home* backend (FNV-1a of the session name over
//!   the currently-healthy active set) — replicas are identical, so any
//!   one of them answers with the same bytes.
//! * **Writes** that are not scattered (table algebra, `open`, `load`,
//!   `delete`, simplex mining, …) are broadcast to every healthy active
//!   backend under a per-session router lock; the reply from the lowest
//!   slot is relayed.
//! * **Scatterable writes** run the `xpart`/`xstage`/`xapply` protocol
//!   described above when more than one healthy backend is active.
//! * Unparseable lines are forwarded raw to the home backend so parse
//!   errors are byte-identical too.
//!
//! **Round-trip budget.** A handler reaches its backends through one
//! send-then-gather fan-out: the request goes out to every participating
//! backend before any reply is read, so replicas work concurrently and a
//! phase costs one round trip — the slowest backend's — whatever the
//! backend count. A broadcast write is one phase. A scattered write is
//! two: compute (`xpart` on every backend) and apply, where `xreset`,
//! every `xstage` chunk and `xapply` are *pipelined* on each connection
//! (a bounded window of lines in flight, replies read as it slides) and
//! count as one round trip however large the merged payload is. With the
//! client's own hop that is three round trips for a scattered write.
//! Pipelining the commit behind its chunks is safe because the backend's
//! staging fails closed (see `gea_server`'s x-verb notes): a refused
//! chunk turns the commit into an `ERR` that installs nothing, and that
//! chunk's `ERR` is the reply relayed. Replies are gathered in slot order,
//! so the relayed reply is still the lowest surviving slot's.
//!
//! Failure model: any transport error marks the backend down pool-wide,
//! and a scatter whose compute phase loses a backend aborts with a single
//! `ERR EBACKEND` — the compute phase is read-only, so nothing was
//! mutated anywhere. A backend lost in the apply phase is simply behind:
//! the survivors' reply is relayed and the resync below catches it up. A
//! down backend is probed with exponential backoff and re-admitted only
//! after every known session has been re-replicated onto it from a
//! healthy source (`xsnapshot`, then the same pipelined staged transfer
//! ending in `xadopt`; the snapshot format the spill path uses, with the
//! same generation-drift refusal).
//!
//! The `rebalance <k>` admin verb grows or shrinks the active prefix at
//! runtime, shipping session snapshots to newly activated backends under
//! a topology write-lock; `backends` lists per-backend health.

mod backend;

pub use backend::BackendPool;
use backend::{probe, BackendConn};

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use gea_server::front::{self, After, Front};
use gea_server::gql::{self, GqlCommand, Request, SessionCtl};
use gea_server::wire::Reply;
use gea_server::{xcodec, EffectTable};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address for the client-facing listener (port 0 picks an
    /// ephemeral port).
    pub addr: String,
    /// Backend `gea-server` addresses, in shard order. Order is identity:
    /// shard *i* of a scatter always runs on backend *i*.
    pub backends: Vec<String>,
    /// How many backends (a prefix of `backends`) start active; 0 means
    /// all of them. `rebalance <k>` changes this at runtime.
    pub active: usize,
    /// Worker threads — the concurrent-client ceiling.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before new
    /// ones are refused with `EBUSY`.
    pub queue_depth: usize,
    /// Health-probe cadence for down backends (and liveness checks on up
    /// ones).
    pub health_interval: Duration,
    /// Per-backend TCP connect timeout.
    pub connect_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:7787".to_string(),
            backends: Vec::new(),
            active: 0,
            workers: 4,
            queue_depth: 16,
            health_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

/// A handle for stopping a running router from another thread.
pub type RouterHandle = front::Handle;

/// State shared by every client handler and the health thread.
struct RouterShared {
    pool: BackendPool,
    /// Backends `[0, active)` participate in routing; the rest are warm
    /// standbys until `rebalance` admits them.
    active: AtomicUsize,
    /// Session names the router has seen succeed (`open`/`use`); the set
    /// a re-admitted backend must be resynced with.
    sessions: Mutex<BTreeSet<String>>,
    /// Per-session write serialization: broadcasts to replicas must land
    /// in one global order per session or the replicas diverge.
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Topology lock: handlers performing replicated writes hold `read`;
    /// resync/rebalance hold `write` so no write can slip past a backend
    /// between its resync and its re-admission.
    topo: RwLock<()>,
    config: RouterConfig,
    shutdown: RouterHandle,
}

impl RouterShared {
    fn session_lock(&self, name: &str) -> Arc<Mutex<()>> {
        let mut locks = self.locks.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            locks
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }

    /// Indices of healthy backends in the active prefix, in shard order.
    fn healthy_actives(&self) -> Vec<usize> {
        let a = self
            .active
            .load(Ordering::SeqCst)
            .clamp(1, self.pool.len().max(1));
        (0..a.min(self.pool.len()))
            .filter(|&i| self.pool.is_up(i))
            .collect()
    }

    fn note_session(&self, name: &str) {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string());
    }

    fn forget_session(&self, name: &str) {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    front: Front,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Bind the client-facing listener. No thread is spawned until
    /// [`Router::run`]; backends are not contacted yet.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let front = Front::bind(&config.addr)?;
        let n = config.backends.len();
        let active = if config.active == 0 {
            n
        } else {
            config.active.min(n)
        };
        let shared = Arc::new(RouterShared {
            pool: BackendPool::new(&config.backends),
            active: AtomicUsize::new(active),
            sessions: Mutex::new(BTreeSet::new()),
            locks: Mutex::new(HashMap::new()),
            topo: RwLock::new(()),
            config,
            shutdown: front.handle(),
        });
        Ok(Router { front, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// A shutdown handle to stop the router from another thread.
    pub fn handle(&self) -> RouterHandle {
        self.front.handle()
    }

    /// Serve until shutdown is requested. Blocks the calling thread; the
    /// worker pool and the health thread are joined before returning.
    pub fn run(self) -> std::io::Result<()> {
        let Router { front, shared } = self;
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gea-router-health".to_string())
                .spawn(move || health_loop(&shared))?
        };
        let (workers, queue_depth) = (shared.config.workers, shared.config.queue_depth);
        let served = front.run("router", workers, queue_depth, shared);
        let _ = health.join();
        served
    }
}

/// Whether this command is worth scattering: the scan-shaped verbs whose
/// per-shard kernels the server exposes via `xpart`. The classification
/// is NOT maintained here — it is the `scatterable` fact of the verb's
/// effect, `EffectTable::of(cmd).scatterable` ([`EffectTable`], exported
/// by `gea-check`), which resolves the form-dependent cases (`populate`
/// with a from-clause, `mine with isa` but not simplex). The
/// exhaustiveness test in `gea-check` guarantees a new verb cannot land
/// without an effect.
fn scatterable(cmd: &GqlCommand) -> bool {
    EffectTable::of(cmd).scatterable
}

/// How a transport-level backend loss renders to the client: one coded
/// error, never a hang or a partial reply.
fn ebackend(msg: impl Into<String>) -> Reply {
    Err(("EBACKEND".to_string(), msg.into()))
}

/// Hex characters shipped per `xstage` line: with the verb prefix every
/// staging line stays under the front end's line ceiling, and it must
/// stay even so byte boundaries are preserved.
const HEX_CHUNK: usize = 48 * 1024;
const _: () = assert!(HEX_CHUNK.is_multiple_of(2) && HEX_CHUNK + 64 < front::MAX_LINE);

/// One client connection's state.
struct ClientConn {
    /// The client's current session, mirroring what a single server's
    /// connection state would be: updated only when `open`/`use` succeeds.
    current: String,
    /// Lazily-established connections to each backend, owned by this
    /// handler so backend-side per-connection state (current session,
    /// staging buffer) is never shared across clients.
    conns: Vec<Option<BackendConn>>,
}

impl front::Service for RouterShared {
    type Conn = ClientConn;

    fn open(&self) -> ClientConn {
        ClientConn {
            current: "default".to_string(),
            conns: (0..self.pool.len()).map(|_| None).collect(),
        }
    }

    fn answer(&self, conn: &mut ClientConn, line: &str) -> (Option<Reply>, After) {
        // Router admin verbs, answered locally (they are not GQL).
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next()) {
            (Some("backends"), None, _) => (Some(Ok(render_backends(self))), After::Continue),
            (Some("rebalance"), k, extra) => {
                let reply = match (k.and_then(|k| k.parse().ok()), extra) {
                    (Some(k), None) => rebalance(self, k),
                    _ => Err((
                        "EPARSE".to_string(),
                        "usage: rebalance <active-backends>".to_string(),
                    )),
                };
                (Some(reply), After::Continue)
            }
            _ => route(line, &mut conn.current, &mut conn.conns, self),
        }
    }
}

fn render_backends(shared: &RouterShared) -> String {
    let active = shared.active.load(Ordering::SeqCst);
    (0..shared.pool.len())
        .map(|i| {
            format!(
                "{i}: {} {}{}",
                shared.pool.addr(i),
                if shared.pool.is_up(i) { "up" } else { "down" },
                if i >= active { " (standby)" } else { "" },
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Route one client line. Returns `None` for lines that get no reply
/// (blank/comment, matching the server's behavior).
fn route(
    line: &str,
    current: &mut String,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
) -> (Option<Reply>, After) {
    let req = match gql::parse(line) {
        Ok(None) => return (None, After::Continue),
        Ok(Some(req)) => req,
        // Forward unparseable lines raw to the home backend: its parser
        // produces the byte-identical EPARSE reply.
        Err(_) => {
            return (
                Some(forward_home(line, current, conns, shared, false)),
                After::Continue,
            )
        }
    };
    match req {
        Request::Help => (Some(Ok(gql::HELP.to_string())), After::Continue),
        Request::Ping => (Some(Ok("pong".to_string())), After::Continue),
        Request::Quit => (Some(Ok("bye".to_string())), After::CloseConnection),
        Request::Shutdown => {
            // Stop the whole deployment: backends first, then this router.
            let _t = shared.topo.read().unwrap_or_else(|e| e.into_inner());
            fan_out(conns, shared, &shared.healthy_actives(), |_| &["shutdown"]);
            (Some(Ok("shutting down".to_string())), After::Stop)
        }
        // Server-wide or filesystem-touching one-shots: one copy suffices
        // and the reply is identical to a single server's.
        Request::Stats | Request::GenCorpus { .. } => (
            Some(forward_home(line, current, conns, shared, false)),
            After::Continue,
        ),
        Request::Session(ctl) => (
            Some(session_ctl(line, &ctl, current, conns, shared)),
            After::Continue,
        ),
        Request::Gql(cmd) => {
            // Affine reads vs replicated writes, decided by the same
            // verb-effect table that drives `scatterable` and the server's
            // cache admission: a read never mutates the session, so any
            // identical replica (the session's home backend) answers it.
            if EffectTable::of(&cmd).is_read() {
                (
                    Some(forward_home(line, current, conns, shared, true)),
                    After::Continue,
                )
            } else {
                (
                    Some(write_cmd(line, &cmd, current, conns, shared)),
                    After::Continue,
                )
            }
        }
    }
}

/// Establish (or reuse) this handler's connection to backend `i`. A
/// connect failure marks the backend down pool-wide.
fn ensure_conn<'a>(
    conns: &'a mut [Option<BackendConn>],
    shared: &RouterShared,
    i: usize,
) -> Result<&'a mut BackendConn, ()> {
    let admission = shared.pool.admissions(i);
    // A connection from before the backend's last re-admission points at
    // a dead socket (the backend restarted); drop it instead of letting
    // the first request after re-admission fail on it.
    if conns[i]
        .as_ref()
        .is_some_and(|conn| conn.admission != admission)
    {
        conns[i] = None;
    }
    if conns[i].is_none() {
        match BackendConn::connect(shared.pool.addr(i), shared.config.connect_timeout) {
            Ok(mut conn) => {
                conn.admission = admission;
                conns[i] = Some(conn);
            }
            Err(_) => {
                shared.pool.mark_down(i);
                return Err(());
            }
        }
    }
    conns[i].as_mut().ok_or(())
}

/// Send-then-gather, the one way a handler reaches its backends: write
/// each slot's request lines to its backend, and only when every backend
/// has its work read the replies, in slot order. The backends therefore
/// work concurrently and the wait is the slowest one's, not the sum,
/// while the caller still sees the replies in slot order — the order the
/// relay rule (lowest surviving slot) is defined on.
///
/// `lines_for(pos)` is the batch for `slots[pos]`; a batch of several
/// lines is pipelined and folds to one reply as [`BackendConn::gather`]
/// describes. `None` is a transport loss at any point: the backend is
/// marked down pool-wide and this handler's connection to it dropped.
/// Every backend that was written to is read from, whatever happened to
/// the others, so no connection is left with an unread reply.
fn fan_out<'a, S: AsRef<str> + 'a>(
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
    slots: &[usize],
    lines_for: impl Fn(usize) -> &'a [S],
) -> Vec<Option<Reply>> {
    let lose = |conns: &mut [Option<BackendConn>], i: usize| {
        conns[i] = None;
        shared.pool.mark_down(i);
    };
    for (pos, &i) in slots.iter().enumerate() {
        if let Ok(conn) = ensure_conn(conns, shared, i) {
            if conn.send(lines_for(pos)).is_err() {
                lose(conns, i);
            }
        }
    }
    // A slot still has its connection exactly when its batch went out.
    slots
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let reply = conns[i].as_mut()?.gather(lines_for(pos)).ok();
            if reply.is_none() {
                lose(conns, i);
            }
            reply
        })
        .collect()
}

/// The relay rule: replicas are identical, so every survivor answers the
/// same bytes, and the client is sent the lowest surviving slot's.
fn relay(replies: Vec<Option<Reply>>) -> Option<Reply> {
    replies.into_iter().flatten().next()
}

/// Align the server-side current session of the connections to `slots`
/// with the client's. `Ok(Some(reply))` is the engine's own error reply
/// if a `use` fails (byte-identical to what the data command would have
/// answered on a single server, since both render `no_session(current)`);
/// `Err(i)` names a backend lost at the transport level.
fn align_sessions(
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
    slots: &[usize],
    current: &str,
) -> Result<Option<Reply>, usize> {
    let mut stale = Vec::new();
    for &i in slots {
        if ensure_conn(conns, shared, i).map_err(|()| i)?.session != current {
            stale.push(i);
        }
    }
    if stale.is_empty() {
        return Ok(None);
    }
    let line = format!("use {current}");
    let replies = fan_out(conns, shared, &stale, |_| std::slice::from_ref(&line));
    let mut failure = None;
    for (&i, reply) in stale.iter().zip(replies) {
        match reply {
            Some(Ok(_)) => {
                if let Some(conn) = conns[i].as_mut() {
                    conn.session = current.to_string();
                }
            }
            Some(err) => {
                failure.get_or_insert(Ok(Some(err)));
            }
            None => {
                failure.get_or_insert(Err(i));
            }
        }
    }
    failure.unwrap_or(Ok(None))
}

/// Forward one line to the session-affine home backend, optionally
/// aligning the backend connection's current session first.
fn forward_home(
    line: &str,
    current: &str,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
    align: bool,
) -> Reply {
    let healthy = shared.healthy_actives();
    if healthy.is_empty() {
        return ebackend("no healthy backend available");
    }
    // FNV-1a over the session name: the stable hash behind home-backend
    // affinity.
    let home = [healthy[(xcodec::fnv1a(current.as_bytes()) % healthy.len() as u64) as usize]];
    let unreachable = || ebackend(format!("backend {} unreachable", shared.pool.addr(home[0])));
    if align {
        match align_sessions(conns, shared, &home, current) {
            Ok(None) => {}
            Ok(Some(err)) => return err,
            Err(_) => return unreachable(),
        }
    }
    relay(fan_out(conns, shared, &home, |_| {
        std::slice::from_ref(&line)
    }))
    .unwrap_or_else(unreachable)
}

/// Session-registry control: broadcast to every healthy active backend so
/// the replicas' registries stay identical, tracking which sessions exist
/// and where each backend connection is attached.
fn session_ctl(
    line: &str,
    ctl: &SessionCtl,
    current: &mut String,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
) -> Reply {
    let target = match ctl {
        SessionCtl::OpenDemo { name, .. } | SessionCtl::OpenDir { name, .. } => name.clone(),
        SessionCtl::Use(name) | SessionCtl::Close(name) => name.clone(),
        // `sessions` is a read over identical registries: home answers.
        SessionCtl::List => return forward_home(line, current, conns, shared, false),
    };
    let _t = shared.topo.read().unwrap_or_else(|e| e.into_inner());
    let _g = shared.session_lock(&target);
    let _guard = _g.lock().unwrap_or_else(|e| e.into_inner());
    let healthy = shared.healthy_actives();
    if healthy.is_empty() {
        return ebackend("no healthy backend available");
    }
    let attaches = matches!(
        ctl,
        SessionCtl::OpenDemo { .. } | SessionCtl::OpenDir { .. } | SessionCtl::Use(_)
    );
    let replies = fan_out(conns, shared, &healthy, |_| std::slice::from_ref(&line));
    if attaches {
        for (&i, reply) in healthy.iter().zip(&replies) {
            if let (Some(Ok(_)), Some(conn)) = (reply, conns[i].as_mut()) {
                conn.session = target.clone();
            }
        }
    }
    let Some(reply) = relay(replies) else {
        return ebackend("no healthy backend available");
    };
    if reply.is_ok() {
        match ctl {
            SessionCtl::OpenDemo { .. } | SessionCtl::OpenDir { .. } | SessionCtl::Use(_) => {
                shared.note_session(&target);
                *current = target;
            }
            SessionCtl::Close(_) => shared.forget_session(&target),
            SessionCtl::List => {}
        }
    }
    reply
}

/// A non-read GQL command: scatter it if it is scan-shaped and more than
/// one healthy backend is active, otherwise broadcast the raw line so
/// every replica executes it identically.
fn write_cmd(
    line: &str,
    cmd: &GqlCommand,
    current: &str,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
) -> Reply {
    let _t = shared.topo.read().unwrap_or_else(|e| e.into_inner());
    let _g = shared.session_lock(current);
    let _guard = _g.lock().unwrap_or_else(|e| e.into_inner());
    let healthy = shared.healthy_actives();
    if healthy.is_empty() {
        return ebackend("no healthy backend available");
    }
    // Align every participating backend connection up front; an alignment
    // error is the engine's own (byte-identical) reply.
    match align_sessions(conns, shared, &healthy, current) {
        Ok(None) => {}
        Ok(Some(err)) => return err,
        Err(i) => return ebackend(format!("backend {} unreachable", shared.pool.addr(i))),
    }
    if healthy.len() > 1 && scatterable(cmd) {
        scatter(cmd, conns, shared, &healthy)
    } else {
        broadcast_raw(line, conns, shared, &healthy)
    }
}

/// Broadcast one raw line to the given backends so every replica executes
/// it identically.
fn broadcast_raw(
    line: &str,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
    slots: &[usize],
) -> Reply {
    relay(fan_out(conns, shared, slots, |_| {
        std::slice::from_ref(&line)
    }))
    .unwrap_or_else(|| ebackend("no healthy backend available"))
}

/// The one staged transfer: the request lines that replace a backend
/// connection's staging buffer with the bytes `hex` armours and then
/// commit them (`xapply …` or `xadopt …`). The lines are meant to be
/// pipelined — the backend's staging fails closed, so a refused chunk
/// turns the commit into an `ERR` that installs nothing.
fn staged_transfer(hex: &str, commit: String) -> Vec<String> {
    let mut lines = Vec::with_capacity(2 + hex.len().div_ceil(HEX_CHUNK));
    lines.push("xreset".to_string());
    // Lossy only for a payload that was never hex, which the backend
    // then refuses.
    lines.extend(
        hex.as_bytes()
            .chunks(HEX_CHUNK)
            .map(|chunk| format!("xstage {}", String::from_utf8_lossy(chunk))),
    );
    lines.push(commit);
    lines
}

/// The scatter/gather protocol: each backend computes one contiguous
/// shard of the command (`xpart`, read-only), the router frames the
/// partial blobs in shard order, and every backend installs the identical
/// merged result (`xstage` + `xapply`). Each phase is one
/// [`fan_out`], i.e. one round trip however many backends take part.
fn scatter(
    cmd: &GqlCommand,
    conns: &mut [Option<BackendConn>],
    shared: &RouterShared,
    healthy: &[usize],
) -> Reply {
    let canonical = cmd.canonical();
    let k = healthy.len();

    // Compute phase: one shard per backend. This phase only reads, so a
    // lost backend aborts the whole command with nothing mutated anywhere.
    let xparts: Vec<String> = (0..k)
        .map(|slot| format!("xpart {slot} {k} :: {canonical}"))
        .collect();
    let partials = fan_out(conns, shared, healthy, |slot| &xparts[slot..=slot]);
    if let Some(slot) = partials.iter().position(Option::is_none) {
        return ebackend(format!(
            "backend {} lost mid-scatter; no partial results were applied",
            shared.pool.addr(healthy[slot])
        ));
    }
    // An engine error is deterministic across identical replicas: relay
    // the lowest slot's.
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(k);
    for partial in partials.into_iter().flatten() {
        match xcodec::hex_decode(partial?.trim()) {
            Ok(blob) => blobs.push(blob),
            Err(e) => return ebackend(format!("malformed scatter partial: {e}")),
        }
    }

    // Apply phase: every replica installs the same merged result. A
    // backend lost here is re-synced by the health thread on
    // re-admission, so survivors may proceed.
    let lines = staged_transfer(
        &xcodec::hex_encode(&xcodec::frame(&blobs)),
        format!("xapply {k} :: {canonical}"),
    );
    relay(fan_out(conns, shared, healthy, |_| &lines))
        .unwrap_or_else(|| ebackend("all backends lost during scatter apply"))
}

/// `rebalance <k>`: resize the active prefix. Growing ships every known
/// session to the newly admitted backends (snapshot under generation
/// check → stage → adopt), refusing on generation drift exactly like the
/// spill path does; shrinking just narrows the prefix.
fn rebalance(shared: &RouterShared, k: usize) -> Reply {
    let n = shared.pool.len();
    if k < 1 || k > n {
        return Err((
            "EQUERY".to_string(),
            format!("rebalance: active backends must be between 1 and {n}"),
        ));
    }
    let cur = shared.active.load(Ordering::SeqCst);
    if k > cur {
        // Exclude all replicated writes while the new backends catch up.
        let _t = shared.topo.write().unwrap_or_else(|e| e.into_inner());
        let source = match (0..cur).find(|&i| shared.pool.is_up(i)) {
            Some(i) => i,
            None => return ebackend("no healthy backend to rebalance from"),
        };
        let names: Vec<String> = shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        for i in cur..k {
            sync_backend(shared, source, i, &names)?;
            shared.pool.mark_up(i);
        }
        shared.active.store(k, Ordering::SeqCst);
    } else {
        shared.active.store(k, Ordering::SeqCst);
    }
    Ok(format!("rebalanced to {k} active backend(s)"))
}

/// Replicate `names` from backend `source` onto backend `target` over
/// fresh connections, with the spill path's generation-drift refusal.
fn sync_backend(
    shared: &RouterShared,
    source: usize,
    target: usize,
    names: &[String],
) -> Result<(), (String, String)> {
    let timeout = shared.config.connect_timeout;
    let lost = |i: usize| {
        (
            "EBACKEND".to_string(),
            format!("backend {} unreachable", shared.pool.addr(i)),
        )
    };
    let mut src = BackendConn::connect(shared.pool.addr(source), timeout).map_err(|_| {
        shared.pool.mark_down(source);
        lost(source)
    })?;
    let mut tgt =
        BackendConn::connect(shared.pool.addr(target), timeout).map_err(|_| lost(target))?;
    for name in names {
        let snap = match src
            .request(&format!("xsnapshot {name}"))
            .map_err(|_| lost(source))?
        {
            // The session evaporated (closed behind our back): not an
            // error, just nothing to ship.
            Err((code, _)) if code == "ENOSESSION" => {
                shared.forget_session(name);
                continue;
            }
            Err(e) => return Err(e),
            Ok(payload) => payload,
        };
        let (header, hex) = snap.split_once('\n').ok_or_else(|| {
            (
                "EBACKEND".to_string(),
                "malformed snapshot reply".to_string(),
            )
        })?;
        let mut parts = header.split_whitespace();
        let (generation, fingerprint) = match (parts.next(), parts.next()) {
            (Some(g), Some(f)) => (g.to_string(), f.to_string()),
            _ => {
                return Err((
                    "EBACKEND".to_string(),
                    "malformed snapshot reply".to_string(),
                ))
            }
        };
        tgt.exchange(&staged_transfer(
            hex,
            format!("xadopt {name} {fingerprint}"),
        ))
        .map_err(|_| lost(target))??;
        // Generation drift check: if the source moved while we shipped,
        // the snapshot is stale — refuse, exactly like a spill whose
        // entry advanced between snapshot and commit.
        let gen_now = src
            .request(&format!("xgen {name}"))
            .map_err(|_| lost(source))??;
        if gen_now.trim() != generation {
            return Err((
                "ECONFLICT".to_string(),
                format!("session {name} changed during rebalance; retry"),
            ));
        }
    }
    Ok(())
}

/// The health thread: probe down backends with exponential backoff and
/// re-admit them only after a full resync; verify up backends are still
/// answering.
/// Sleep `total`, but wake early (within ~100ms) if shutdown is raised so
/// a long health interval never delays [`Router::run`]'s join.
fn sleep_interruptible(shared: &RouterShared, total: Duration) {
    let mut left = total;
    while left > Duration::ZERO && !shared.shutdown.is_shutting_down() {
        let step = left.min(Duration::from_millis(100));
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

fn health_loop(shared: &RouterShared) {
    let interval = shared.config.health_interval;
    while !shared.shutdown.is_shutting_down() {
        sleep_interruptible(shared, interval);
        let active = shared.active.load(Ordering::SeqCst);
        for i in 0..shared.pool.len() {
            if shared.shutdown.is_shutting_down() {
                return;
            }
            if shared.pool.is_up(i) {
                // Standby backends are not probed; active ones get a
                // liveness check so a silent death is noticed even with
                // no client traffic.
                if i < active && !probe(shared.pool.addr(i), shared.config.connect_timeout) {
                    shared.pool.mark_down(i);
                }
                continue;
            }
            if !shared.pool.due_for_probe(i) {
                continue;
            }
            if !probe(shared.pool.addr(i), shared.config.connect_timeout) {
                shared.pool.note_probe_failure(i, interval);
                continue;
            }
            // Alive again: resync every known session before re-admitting,
            // holding the topology lock so no write slips into the gap
            // between resync and re-admission.
            let _t = shared.topo.write().unwrap_or_else(|e| e.into_inner());
            let source = (0..shared.pool.len())
                .filter(|&j| j != i && j < active)
                .find(|&j| shared.pool.is_up(j));
            let resynced = match source {
                None => true, // nothing healthy to diverge from
                Some(src) => {
                    let names: Vec<String> = shared
                        .sessions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .iter()
                        .cloned()
                        .collect();
                    sync_backend(shared, src, i, &names).is_ok()
                }
            };
            if resynced {
                shared.pool.mark_up(i);
            } else {
                shared.pool.note_probe_failure(i, interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_server::xcodec::fnv1a;
    use std::sync::mpsc;

    #[test]
    fn scatterable_covers_exactly_the_scan_shaped_verbs() {
        assert!(scatterable(&GqlCommand::MineWith {
            dataset: "d".into(),
            out: "f".into(),
            algo: "fascicles".into(),
            params: vec![],
        }));
        assert!(scatterable(&GqlCommand::Groups("f_1".into())));
        assert!(scatterable(&GqlCommand::Populate {
            name: "t".into(),
            from: Some(("s".into(), "d".into())),
        }));
        // Lineage re-materialization has no per-shard kernel.
        assert!(!scatterable(&GqlCommand::Populate {
            name: "t".into(),
            from: None,
        }));
        assert!(scatterable(&GqlCommand::MineWith {
            dataset: "d".into(),
            out: "m".into(),
            algo: "isa".into(),
            params: vec![],
        }));
        // Simplex replicates via broadcast instead.
        assert!(!scatterable(&GqlCommand::MineWith {
            dataset: "d".into(),
            out: "m".into(),
            algo: "simplex".into(),
            params: vec![],
        }));
        assert!(!scatterable(&GqlCommand::Lineage));
    }

    /// A staged transfer far larger than the loopback socket buffers, with
    /// many more lines than the in-flight window, neither deadlocks nor
    /// loses a byte. The commit line here is one more `xstage`, whose
    /// reply reports everything the backend has staged.
    #[test]
    fn a_staged_transfer_larger_than_the_socket_buffers_completes() {
        let server = gea_server::Server::bind(gea_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..gea_server::ServerConfig::default()
        })
        .expect("bind backend");
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.run().expect("serve backend"));

        const RAW: usize = 16 * 1024 * 1024 + HEX_CHUNK / 2;
        let hex = "5a".repeat(RAW);
        let (body, tail) = hex.split_at(hex.len() - HEX_CHUNK);
        let lines = staged_transfer(body, format!("xstage {tail}"));
        assert!(lines.len() > 10 * backend::WINDOW, "{} lines", lines.len());

        // A deadlock must fail the test, not hang the suite.
        let (done, outcome) = mpsc::channel();
        let transfer = std::thread::spawn(move || {
            let mut conn =
                BackendConn::connect(&addr, Duration::from_secs(2)).expect("connect backend");
            let _ = done.send(conn.exchange(&lines).expect("transport"));
            conn.request("xreset").expect("transport").expect("xreset");
        });
        let reply = outcome
            .recv_timeout(Duration::from_secs(120))
            .expect("staged transfer deadlocked");
        assert_eq!(reply, Ok(format!("staged {RAW} bytes")));

        transfer.join().expect("transfer thread");
        handle.shutdown();
        serving.join().expect("backend thread");
    }

    #[test]
    fn home_affinity_is_stable_and_in_range() {
        for n in 1..=5u64 {
            let h = (fnv1a(b"default") % n) as usize;
            assert!(h < n as usize);
            assert_eq!(h, (fnv1a(b"default") % n) as usize);
        }
        // Different sessions can land on different homes (not a strict
        // requirement, but the hash must at least not be constant).
        let spread: std::collections::BTreeSet<u64> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|s| fnv1a(s.as_bytes()) % 4)
            .collect();
        assert!(spread.len() > 1);
    }
}
