//! The server runtime: what `gea-server` answers on each connection the
//! shared front end ([`crate::front`]; DESIGN.md, "Front-end note") hands
//! it.
//!
//! Commands run against [`SessionRegistry`] sessions under read or write
//! locks chosen by [`GqlCommand::is_read`], with a per-request lock
//! deadline so writers stuck behind a long mine surface as `ERR ETIMEOUT`.
//!
//! Two policies layer on top of the request loop:
//!
//! * a [`ResponseCache`]: cacheable read replies are stored one slot per
//!   `(session entry, normalized command)`, stamped with the generation
//!   they were computed under, and served on a repeat without touching
//!   the session lock — any write bumps the generation, so stale replies
//!   structurally miss and the recomputed reply replaces them;
//! * an [`EvictionPolicy`]: a background sweeper (plus an eager check
//!   after every write) evicts sessions idle past a timeout or, in LRU
//!   order, whatever pushes the registry over its byte budget. Without a
//!   spill directory, evicted sessions answer `ERR EEVICTED` until
//!   re-opened. With `spill_dir` configured, eviction becomes a
//!   transparent slow path instead: the victim's full state is persisted
//!   (snapshot + fingerprint) before it is dropped, and the next request
//!   against the name restores it from disk under a fresh registry entry
//!   — the client never sees `EEVICTED` unless the spill file itself is
//!   unreadable.
//!
//! Every lock this module takes follows the registry's discipline
//! (canonical copy in [`crate::registry`], kept in sync by
//! `scripts/lint-invariants.sh`):
//!
//! LOCK ORDER: eviction pass mutex -> registry map mutex -> entry gate mutex -> entry session RwLock; never two entries at once; atomics, cache, and metrics are lock-free and safe under any guard.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gea_core::persist;
use gea_core::session::{ExecConfig, GeaSession};
use gea_sage::clean::CleaningConfig;
use gea_sage::generate::{generate, GeneratorConfig};

use crate::cache::{Admission, CacheScope, ResponseCache};
use crate::engine::{self, EngineError};
use crate::front::{self, After, Front};
use crate::gql::{self, GqlCommand, Request, SessionCtl};
use crate::metrics::{Counter, Metrics};
use crate::optexec;
use crate::registry::{
    Adopt, EvictReason, EvictionPolicy, Lookup, SessionEntry, SessionRegistry, SharedSession,
    SpillRecord, RETIRED,
};
use crate::wire::Reply;
use crate::xverb::{self, Staging};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:7687`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads — the concurrent-connection ceiling.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before new
    /// ones are refused with `EBUSY`.
    pub queue_depth: usize,
    /// Per-request lock-acquisition deadline.
    pub lock_timeout: Duration,
    /// Response-cache budget in bytes of cached command + reply text;
    /// 0 disables the cache.
    pub cache_bytes: usize,
    /// Total approximate session bytes the registry may hold before
    /// least-recently-used sessions are evicted. `None` disables the
    /// budget.
    pub session_budget: Option<u64>,
    /// Sessions idle longer than this are evicted by the background
    /// sweeper. `None` disables the sweep.
    pub idle_timeout: Option<Duration>,
    /// Directory where evicted sessions are spilled for transparent
    /// restore on next use. `None` keeps the drop-and-`EEVICTED`
    /// behavior.
    pub spill_dir: Option<PathBuf>,
    /// Worker threads for sharded mine/populate/aggregate inside each
    /// session (`gea-exec`); 0 means available parallelism.
    pub threads: usize,
    /// Static cost budget in `gea-check` abstract units: commands whose
    /// predicted cost exceeds it are rejected with `EBUDGET` before
    /// execution. `None` disables the gate.
    pub max_cost: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7687".to_string(),
            workers: 4,
            queue_depth: 16,
            lock_timeout: Duration::from_secs(30),
            cache_bytes: 8 * 1024 * 1024,
            session_budget: None,
            idle_timeout: None,
            spill_dir: None,
            threads: 0,
            max_cost: None,
        }
    }
}

impl ServerConfig {
    /// The registry eviction policy implied by this configuration.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        EvictionPolicy {
            session_budget: self.session_budget,
            idle_timeout: self.idle_timeout,
        }
    }
}

/// A handle for stopping a running server from another thread.
pub type ServerHandle = front::Handle;

/// Everything a worker needs to answer requests; shared across the pool,
/// the eviction sweeper, and the backend-verb handler (`crate::xverb`).
pub(crate) struct Shared {
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) cache: ResponseCache,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: ServerHandle,
    /// Held for the whole of an eviction pass, so the sweeper and the
    /// eager check after a write never snapshot the same victim at once.
    evicting: Mutex<()>,
}

/// A bound, not-yet-running server.
pub struct Server {
    front: Front,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener. No thread is spawned until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let front = Front::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            registry: Arc::new(SessionRegistry::new()),
            metrics: Arc::new(Metrics::new()),
            cache: ResponseCache::new(config.cache_bytes),
            config,
            shutdown: front.handle(),
            evicting: Mutex::new(()),
        });
        Ok(Server { front, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The session registry, for pre-opening sessions before serving.
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.shared.registry
    }

    /// A shutdown handle to stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        self.front.handle()
    }

    /// Serve until shutdown is requested. Blocks the calling thread; the
    /// worker pool (and the eviction sweeper, if any) is joined before
    /// returning.
    pub fn run(self) -> std::io::Result<()> {
        let Server { front, shared } = self;
        let policy_active = shared.config.eviction_policy().is_active();
        let sweeper = policy_active
            .then(|| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("gea-sweeper".to_string())
                    .spawn(move || sweeper(&shared))
            })
            .transpose()?;
        let (workers, queue_depth) = (shared.config.workers, shared.config.queue_depth);
        let served = front.run("server", workers, queue_depth, shared);
        if let Some(sweeper) = sweeper {
            let _ = sweeper.join();
        }
        served
    }
}

/// How often the eviction sweeper wakes to check the shutdown flag and
/// run the policy.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

fn sweeper(shared: &Shared) {
    let policy = shared.config.eviction_policy();
    while !shared.shutdown.is_shutting_down() {
        std::thread::sleep(SWEEP_INTERVAL);
        evict_pass(shared, &policy);
    }
}

/// How long a spill waits for the victim's read lock before skipping it
/// this pass. A session the policy chose is quiescent; anything actively
/// locked is no longer a good victim anyway.
const SPILL_LOCK_TIMEOUT: Duration = Duration::from_millis(250);

/// Run one eviction pass under `policy`: the registry names the victims
/// read-only, and each is committed out of it on its own, re-checked at
/// the commit — with a spill directory after being persisted there, so a
/// session that turned busy since it was chosen is skipped, not dropped.
/// Passes run one at a time.
fn evict_pass(shared: &Shared, policy: &EvictionPolicy) {
    if !policy.is_active() {
        return;
    }
    let _pass = shared.evicting.lock().unwrap_or_else(|e| e.into_inner());
    for (name, entry, reason) in shared.registry.eviction_candidates(policy) {
        match &shared.config.spill_dir {
            Some(dir) => spill_one(shared, &name, &entry, reason, dir),
            None => evict_one(shared, &name, &entry, reason),
        }
    }
}

/// Evict one candidate without persistence and purge its cached replies.
fn evict_one(shared: &Shared, name: &str, entry: &SharedSession, reason: EvictReason) {
    if shared.registry.evict(name, entry, reason) {
        shared.metrics.add(Counter::SessionsEvicted, 1);
        shared.cache.purge_entry(entry.id());
    }
}

/// Spill one eviction candidate: snapshot its state to disk under a read
/// guard (writers excluded, so the snapshot is consistent), then commit
/// the eviction only if the entry is still unlocked and at the snapshot's
/// generation — a request that raced in invalidates the snapshot, which
/// is abandoned and the session stays live. An unwritable spill falls
/// back to a plain (lossy) eviction so the memory budget still holds.
///
/// The spill is stored under the name *and the entry id*, so every spill
/// of a name has its own path: a restore that finishes late deletes its
/// own snapshot, never a newer one, and its path no longer matches the
/// tombstone's.
fn spill_one(
    shared: &Shared,
    name: &str,
    entry: &SharedSession,
    reason: EvictReason,
    dir: &std::path::Path,
) {
    let Ok(guard) = entry.read_with_deadline(SPILL_LOCK_TIMEOUT) else {
        return; // busy: no longer a victim, try again next pass
    };
    let generation = entry.generation();
    let spilled = persist::spill_session(&guard, dir, &format!("{name}-{}", entry.id()));
    drop(guard);
    match spilled {
        Ok(spill) => {
            let record = SpillRecord {
                reason,
                path: spill.path,
                fingerprint: spill.fingerprint,
            };
            let path = record.path.clone();
            if shared
                .registry
                .evict_to_spill(name, entry, generation, record)
            {
                shared.metrics.add(Counter::SessionsSpilled, 1);
                shared.metrics.add(Counter::SessionsEvicted, 1);
                shared.cache.purge_entry(entry.id());
            } else {
                // A request slipped in between snapshot and commit: the
                // snapshot is stale; drop it and leave the session live.
                persist::remove_spill(&path);
            }
        }
        Err(_) => {
            shared.metrics.add(Counter::SpillErrors, 1);
            evict_one(shared, name, entry, reason);
        }
    }
}

/// Restore a spilled session on first use: load and fingerprint-verify
/// the snapshot (outside any lock), then install it under a fresh entry.
/// Racing restores converge on whichever entry landed first. A snapshot
/// that fails verification demotes the tombstone to a plain eviction so
/// the name answers `EEVICTED` from then on instead of retrying.
fn restore_spilled(
    shared: &Shared,
    name: &str,
    record: &SpillRecord,
) -> Result<SharedSession, EngineError> {
    restore_spilled_inner(
        &shared.registry,
        &shared.metrics,
        shared.config.threads,
        name,
        record,
    )
}

/// The restore body, free of `Shared` so a detached prefetch thread (which
/// owns only `Arc` clones of the registry and metrics) can run it too.
fn restore_spilled_inner(
    registry: &SessionRegistry,
    metrics: &Metrics,
    threads: usize,
    name: &str,
    record: &SpillRecord,
) -> Result<SharedSession, EngineError> {
    match persist::load_session_verified(&record.path, record.fingerprint) {
        Ok(mut session) => {
            session.set_exec_config(ExecConfig::with_threads(threads));
            match registry.adopt_restored(name, session, &record.path) {
                Adopt::Installed(entry) => {
                    metrics.add(Counter::SessionsRestored, 1);
                    persist::remove_spill(&record.path);
                    Ok(entry)
                }
                Adopt::Existing(entry) => Ok(entry),
                Adopt::Stale => Err(no_session(name)),
            }
        }
        Err(_) => {
            // A concurrent restore may have adopted the session and deleted
            // the snapshot out from under this load. That is a success, not
            // a broken spill: converge on the live entry.
            if let Lookup::Found(entry) = registry.lookup(name) {
                return Ok(entry);
            }
            metrics.add(Counter::SpillErrors, 1);
            registry.downgrade_spill(name, &record.path);
            Err(EngineError::new(
                "EEVICTED",
                format!(
                    "session {name:?} was evicted ({}) and its spill file is unreadable; re-open it",
                    record.reason
                ),
            ))
        }
    }
}

/// Kick a spilled session's restore onto a detached background thread so
/// `use` returns immediately; the first data request either finds the
/// restored entry already live or falls back to the inline restore path
/// (the two converge via [`SessionRegistry::adopt_restored`]). If the
/// thread cannot be spawned, restore inline instead.
fn prefetch_spilled(shared: &Shared, name: &str, record: &SpillRecord) -> Result<(), EngineError> {
    let registry = Arc::clone(&shared.registry);
    let metrics = Arc::clone(&shared.metrics);
    let threads = shared.config.threads;
    let name_owned = name.to_string();
    let record_owned = record.clone();
    let spawned = std::thread::Builder::new()
        .name("gea-prefetch".to_string())
        .spawn(move || {
            let _ = restore_spilled_inner(&registry, &metrics, threads, &name_owned, &record_owned);
        });
    match spawned {
        Ok(_) => {
            shared.metrics.add(Counter::SessionsPrefetched, 1);
            Ok(())
        }
        Err(_) => restore_spilled(shared, name, record).map(|_| ()),
    }
}

/// One client connection's state.
pub(crate) struct Conn {
    /// The named session the connection is attached to; `use` switches it.
    current: String,
    /// Staging buffer for the backend verbs (`xstage`/`xapply`/`xadopt`):
    /// per-connection, so concurrent routers never interleave payloads.
    staged: Staging,
}

impl front::Service for Shared {
    type Conn = Conn;

    fn open(&self) -> Conn {
        self.metrics.connection_opened();
        Conn {
            current: "default".to_string(),
            staged: Staging::default(),
        }
    }

    fn answer(&self, conn: &mut Conn, line: &str) -> (Option<Reply>, After) {
        let started = Instant::now();
        // Backend verbs (the router's scatter/rebalance plane) bypass the
        // GQL grammar; `xprofiler` and friends fall through to it.
        let (verb, result, after) = match xverb::handle(line, &mut conn.staged, &conn.current, self)
        {
            Some((verb, result)) => (verb, result, After::Continue),
            None => match gql::parse(line) {
                Ok(None) => return (None, After::Continue),
                Ok(Some(req)) => {
                    let (result, after) = answer_request(&req, &mut conn.current, self);
                    (req.verb(), result, after)
                }
                Err(e) => (
                    "parse",
                    Err(EngineError::new("EPARSE", e.0)),
                    After::Continue,
                ),
            },
        };
        self.metrics.record(verb, started.elapsed(), result.is_ok());
        let reply = result.map_err(|e| (e.code.to_string(), e.message));
        (Some(reply), after)
    }

    fn closed(&self) {
        self.metrics.connection_closed();
    }

    fn refused(&self) {
        self.metrics.add(Counter::ConnectionsRejected, 1);
    }
}

/// Execute one request against the registry. Pure with respect to the
/// connection: all I/O stays in [`crate::front`].
fn answer_request(
    req: &Request,
    current: &mut String,
    shared: &Shared,
) -> (Result<String, EngineError>, After) {
    let mut after = After::Continue;
    let result = match req {
        Request::Help => Ok(gql::HELP.to_string()),
        Request::Ping => Ok("pong".to_string()),
        Request::Stats => {
            let mut out = shared.metrics.render();
            out.push_str(&shared.cache.render_gauges());
            Ok(out)
        }
        Request::Quit => {
            after = After::CloseConnection;
            Ok("bye".to_string())
        }
        Request::Shutdown => {
            after = After::Stop;
            Ok("shutting down".to_string())
        }
        Request::GenCorpus { seed, dir } => gen_corpus(*seed, dir),
        Request::Session(ctl) => session_ctl(ctl, current, shared),
        Request::Gql(cmd) => run_gql(cmd, current, shared),
    };
    (result, after)
}

fn gen_corpus(seed: u64, dir: &str) -> Result<String, EngineError> {
    let (corpus, _) = generate(&GeneratorConfig::demo(seed));
    gea_sage::io::write_corpus_dir(&corpus, std::path::Path::new(dir))?;
    Ok(format!("wrote {} libraries to {dir}", corpus.len()))
}

fn session_ctl(
    ctl: &SessionCtl,
    current: &mut String,
    shared: &Shared,
) -> Result<String, EngineError> {
    match ctl {
        SessionCtl::OpenDemo { name, seed } => {
            // Corpus generation and cleaning run outside any lock; only the
            // final registry insert synchronizes.
            let (corpus, _) = generate(&GeneratorConfig::demo(*seed));
            let session = GeaSession::open(corpus, &CleaningConfig::default())?;
            Ok(install(shared, current, name, session, None))
        }
        SessionCtl::OpenDir { name, dir } => {
            let corpus = gea_sage::io::read_corpus_dir(std::path::Path::new(dir))?;
            let session = GeaSession::open(corpus, &CleaningConfig::default())?;
            Ok(install(shared, current, name, session, Some(dir)))
        }
        SessionCtl::Use(name) => {
            match shared.registry.lookup(name) {
                Lookup::Found(_) => {}
                // Don't make `use` pay for the restore: kick it onto a
                // background thread and let the first data request find
                // the session already live (or restore inline itself).
                Lookup::Spilled(record) => {
                    prefetch_spilled(shared, name, &record)?;
                }
                Lookup::Evicted(reason) => return Err(EngineError::evicted(name, reason)),
                Lookup::Missing => return Err(no_session(name)),
            }
            *current = name.clone();
            Ok(format!("using session {name}"))
        }
        SessionCtl::List => {
            let sessions = shared.registry.list();
            if sessions.is_empty() {
                return Ok("no sessions open".to_string());
            }
            Ok(sessions
                .iter()
                .map(|s| {
                    format!(
                        "{}: {} attached request(s), generation {}, ~{} bytes",
                        s.name, s.attached, s.generation, s.approx_bytes
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        SessionCtl::Close(name) => {
            // `close` on a spilled name clears the tombstone and deletes
            // the now-dead snapshot from disk.
            if let Some(record) = shared.registry.take_spill(name) {
                persist::remove_spill(&record.path);
                return Ok(format!("cleared spilled session {name}"));
            }
            let was_evicted = matches!(shared.registry.lookup(name), Lookup::Evicted(_));
            match shared.registry.close_entry(name) {
                Some(entry) => {
                    shared.cache.purge_entry(entry.id());
                    Ok(format!("closed session {name}"))
                }
                // `close` on an evicted name clears the tombstone.
                None if was_evicted => Ok(format!("cleared evicted session {name}")),
                None => Err(no_session(name)),
            }
        }
    }
}

fn install(
    shared: &Shared,
    current: &mut String,
    name: &str,
    mut session: GeaSession,
    dir: Option<&str>,
) -> String {
    session.set_exec_config(ExecConfig::with_threads(shared.config.threads));
    // Stamp the entry with its corpus fingerprint so pristine twins
    // (same corpus, no writes yet) can share pure-read cache slots.
    let fingerprint = persist::corpus_fingerprint(&session).ok();
    let report = session.cleaning_report().clone();
    let libs = session.source().n_libraries();
    // A fresh open supersedes any spilled state under the name; delete
    // the snapshot so a later eviction can't resurrect stale data.
    if let Some(record) = shared.registry.take_spill(name) {
        persist::remove_spill(&record.path);
    }
    if let Some(replaced) = shared
        .registry
        .open_with_fingerprint(name, session, fingerprint)
    {
        shared.cache.purge_entry(replaced.id());
    }
    *current = name.to_string();
    // A newly opened session may immediately push the registry over its
    // budget; enforce eagerly so the LRU victim surfaces EEVICTED on its
    // next use rather than whenever the sweeper gets around to it.
    enforce_budget(shared);
    let what = match dir {
        Some(dir) => format!("loaded {dir}"),
        None => "session open".to_string(),
    };
    format!(
        "{what}: {} -> {} tags after cleaning, {} libraries [session {name}]",
        report.raw_union_tags, report.kept_tags, libs
    )
}

pub(crate) fn enforce_budget(shared: &Shared) {
    let policy = EvictionPolicy {
        session_budget: shared.config.session_budget,
        idle_timeout: None,
    };
    evict_pass(shared, &policy);
}

fn no_session(name: &str) -> EngineError {
    EngineError::new(
        "ENOSESSION",
        format!("no session named {name:?}; run `open {name} demo <seed>` or `sessions`"),
    )
}

/// Which cache namespace a reply computed against `entry` at `generation`
/// lives in. A *pristine* session (generation 0 — no write lock was ever
/// acquired, so its state is exactly as opened) with a known corpus
/// fingerprint shares the corpus-wide namespace with its twins; anything
/// else stays private to the entry.
fn cache_scope(entry: &SessionEntry, generation: u64) -> CacheScope {
    match entry.corpus_fingerprint() {
        Some(fp) if generation == 0 => CacheScope::Corpus(fp),
        _ => CacheScope::Entry(entry.id()),
    }
}

/// How many times [`with_live_entry`] resolves a name again after the entry
/// it found was evicted before the request locked it.
const RETIRED_RETRIES: usize = 4;

/// Run `f` against the live entry behind `name`. If the entry is evicted
/// between the lookup and `f`'s lock, the lock is refused ([`RETIRED`]),
/// and the name is resolved again — restoring the spill — and `f`
/// retried, so no request acts on an entry the registry no longer holds.
pub(crate) fn with_live_entry<T>(
    shared: &Shared,
    name: &str,
    mut f: impl FnMut(&SharedSession) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let mut retries = 0;
    loop {
        let entry = live_entry(shared, name)?;
        match f(&entry) {
            Err(e) if e.code == RETIRED && retries < RETIRED_RETRIES => retries += 1,
            result => return result,
        }
    }
}

/// Resolve a session name to its live entry, transparently restoring a
/// spilled session; shared by the GQL path and the backend verbs.
pub(crate) fn live_entry(shared: &Shared, name: &str) -> Result<SharedSession, EngineError> {
    match shared.registry.lookup(name) {
        Lookup::Found(entry) => Ok(entry),
        // The transparent slow path: a spilled session is restored from
        // disk and the request proceeds against the fresh entry.
        Lookup::Spilled(record) => restore_spilled(shared, name, &record),
        Lookup::Evicted(reason) => Err(EngineError::evicted(name, reason)),
        Lookup::Missing => Err(no_session(name)),
    }
}

/// The `--max-cost` admission gate: predict the command's cost against
/// the session's *live* cardinalities (`gea-check`'s abstract cost
/// domain) and reject statically-over-budget work with `EBUDGET` before
/// any of it runs. Runs under the session lock so the seed is a
/// consistent snapshot; cache hits bypass the gate — a cached reply
/// costs nothing to serve. The coefficients are the model's built-in
/// defaults, never host-local bench calibration, so identical replicas
/// reject identically.
fn enforce_max_cost(
    shared: &Shared,
    session: &gea_core::session::GeaSession,
    cmd: &GqlCommand,
) -> Result<(), EngineError> {
    let Some(max) = shared.config.max_cost else {
        return Ok(());
    };
    let seed = gea_check::CostSeed::from_session(session);
    let model = gea_check::CostModel::default_coefficients();
    let report = gea_check::cost_pipeline(&model, &seed, std::slice::from_ref(cmd));
    if report.total > max {
        shared.metrics.add(Counter::BudgetRejected, 1);
        return Err(EngineError::new(
            "EBUDGET",
            format!(
                "predicted cost {} units exceeds --max-cost {max}",
                report.total
            ),
        ));
    }
    Ok(())
}

fn run_gql(cmd: &GqlCommand, current: &str, shared: &Shared) -> Result<String, EngineError> {
    if cmd.is_read() {
        // The cache key is the *canonical* spelling of the command's
        // algebraic canonical form (gea-opt), so algebraically-equal
        // commands (whose replies the rule audit proves byte-identical)
        // unify onto one slot.
        let key = cmd.is_cacheable().then(|| {
            let (key, unified) = gea_opt::cache_key_unified(cmd);
            if unified {
                shared.metrics.add(Counter::OptKeyUnified, 1);
            }
            key
        });
        with_live_entry(shared, current, |entry| {
            run_read(cmd, key.as_deref(), entry, shared)
        })
    } else {
        // The one way a command reaches a session, here as in `gea-cli`:
        // rewritten if a gea-opt rule matches, the literal engine otherwise.
        let rewritten = gea_opt::rewrite_command(0, cmd);
        with_live_entry(shared, current, |entry| {
            let mut session = entry.write_with_deadline(shared.config.lock_timeout)?;
            enforce_max_cost(shared, &session, cmd)?;
            let result = match &rewritten {
                Some((step, _)) => {
                    shared.metrics.add(Counter::OptRewrites, 1);
                    optexec::run_rewritten(&mut session, step)
                }
                None => engine::execute_write(&mut session, cmd),
            };
            // Drain while still holding the guard so a concurrent writer's
            // events are never attributed to this request.
            let events = session.drain_exec_events();
            // Release before enforcing: the guard's drop refreshes the
            // entry's size estimate with whatever this write grew it to.
            drop(session);
            for ev in events {
                shared
                    .metrics
                    .exec_op(ev.op, ev.shards as u64, ev.wall_us, ev.busy_us);
            }
            enforce_budget(shared);
            result
        })
    }
}

/// A read command against one live entry: served from the response cache
/// when `key` has a slot at the entry's generation, else computed under a
/// read guard and offered to the cache.
fn run_read(
    cmd: &GqlCommand,
    key: Option<&str>,
    entry: &SharedSession,
    shared: &Shared,
) -> Result<String, EngineError> {
    if let Some(key) = key {
        // The hit path never touches the session lock: the reply was
        // computed under this generation, and serving it is
        // linearized at the instant of the generation load.
        let generation = entry.generation();
        if let Some(reply) = shared
            .cache
            .get(cache_scope(entry, generation), generation, key)
        {
            // A hit is still session activity: refresh the idle stamp
            // here, since this path never acquires the session lock.
            entry.touch();
            shared.metrics.add(Counter::CacheHits, 1);
            return Ok(reply);
        }
        shared.metrics.add(Counter::CacheMisses, 1);
    }
    let session = entry.read_with_deadline(shared.config.lock_timeout)?;
    enforce_max_cost(shared, &session, cmd)?;
    // Writers are excluded while the read guard is held, so this
    // generation is the one the reply is computed under.
    let generation = entry.generation();
    let result = engine::execute_read(&session, cmd);
    drop(session);
    if let (Some(key), Ok(reply)) = (key, &result) {
        match shared.cache.insert(
            cache_scope(entry, generation),
            generation,
            key.to_string(),
            reply.clone(),
        ) {
            Admission::Stored { evicted } => shared.metrics.add(Counter::CacheEvictions, evicted),
            Admission::Rejected => shared.metrics.add(Counter::CacheRejected, 1),
            Admission::Superseded | Admission::Disabled => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GeaClient;

    fn spawn_server(
        config: ServerConfig,
    ) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle, join)
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 4,
            lock_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn ping_errors_and_shutdown() {
        let (addr, handle, join) = spawn_server(test_config());
        let mut client = GeaClient::connect(addr).expect("connect");
        assert_eq!(client.request("ping").unwrap(), Ok("pong".to_string()));
        // Malformed commands answer ERR without dropping the connection.
        let err = client.request("mine").unwrap().unwrap_err();
        assert_eq!(err.0, "EPARSE");
        let err = client.request("tissues").unwrap().unwrap_err();
        assert_eq!(err.0, "ENOSESSION");
        // Still alive.
        assert!(client.request("help").unwrap().unwrap().contains("GQL"));
        let stats = client.request("stats").unwrap().unwrap();
        assert!(stats.contains("requests_total"), "{stats}");
        assert!(stats.contains("cache_entries"), "{stats}");
        assert_eq!(
            client.request("shutdown").unwrap(),
            Ok("shutting down".to_string())
        );
        join.join().unwrap();
        assert!(handle.is_shutting_down());
    }

    #[test]
    fn handle_shutdown_stops_an_idle_server() {
        let (_, handle, join) = spawn_server(test_config());
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn evicted_session_answers_eevicted_until_reopened() {
        let mut config = test_config();
        // Any real session dwarfs a 1-byte budget, so the first write (or
        // open) evicts it.
        config.session_budget = Some(1);
        let (addr, handle, join) = spawn_server(config);
        let mut client = GeaClient::connect(addr).expect("connect");
        client.expect_ok("open tiny demo 42").expect("open");
        let err = client.request("tissues").unwrap().unwrap_err();
        assert_eq!(err.0, "EEVICTED", "{err:?}");
        assert!(err.1.contains("budget"), "{err:?}");
        // `use` of the evicted name also reports eviction, not absence.
        let err = client.request("use tiny").unwrap().unwrap_err();
        assert_eq!(err.0, "EEVICTED");
        // Closing the evicted name clears the tombstone...
        let msg = client.expect_ok("close tiny").unwrap();
        assert!(msg.contains("cleared"), "{msg}");
        let err = client.request("use tiny").unwrap().unwrap_err();
        assert_eq!(err.0, "ENOSESSION");
        let stats = client.expect_ok("stats").unwrap();
        assert!(!stats.contains("sessions_evicted 0"), "{stats}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn cache_hits_keep_a_session_alive_under_the_idle_sweep() {
        let mut config = test_config();
        config.idle_timeout = Some(Duration::from_millis(200));
        let (addr, handle, join) = spawn_server(config);
        let mut client = GeaClient::connect(addr).expect("connect");
        client.expect_ok("open hot demo 42").expect("open");
        client.expect_ok("lineage").expect("prime the cache");
        // Hammer the same cacheable read well past the idle timeout: every
        // reply after the first comes from the cache without touching the
        // session lock, and each hit must still count as activity — the
        // sweeper would otherwise evict a session that is actively queried.
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(700) {
            client.expect_ok("lineage").expect("cache-served read");
            std::thread::sleep(Duration::from_millis(40));
        }
        let stats = client.expect_ok("stats").unwrap();
        assert!(!stats.contains("cache_hits 0\n"), "{stats}");
        assert!(stats.contains("sessions_evicted 0"), "{stats}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn max_cost_rejects_over_budget_commands_with_ebudget() {
        let mut config = test_config();
        // A demo corpus has a few dozen libraries, so `mine` (cost ~
        // libraries x batch x weight) blows a 100-unit budget while
        // `lineage` (cost 1) stays under it.
        config.max_cost = Some(100);
        let (addr, handle, join) = spawn_server(config);
        let mut client = GeaClient::connect(addr).expect("connect");
        client.expect_ok("open tiny demo 42").expect("open");
        client
            .expect_ok("dataset E brain")
            .expect("cheap write runs");
        client.expect_ok("lineage").expect("cheap read runs");
        let err = client.request("mine E f 50 3 6").unwrap().unwrap_err();
        assert_eq!(err.0, "EBUDGET", "{err:?}");
        // The rejection names the predicted cost and the configured cap.
        assert!(err.1.contains("predicted cost"), "{err:?}");
        assert!(err.1.contains("--max-cost 100"), "{err:?}");
        // Nothing executed: the session still has no fascicles…
        let err2 = client.request("purity f_1").unwrap().unwrap_err();
        assert_ne!(err2.0, "EBUDGET", "purity itself is cheap: {err2:?}");
        // …and the gate's counter ticked.
        let stats = client.expect_ok("stats").unwrap();
        assert!(stats.contains("budget_rejected 1"), "{stats}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn concurrent_eviction_passes_lose_no_session_and_no_write() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = std::env::temp_dir().join(format!("gea_spill_race_{}", std::process::id()));
        let mut config = test_config();
        // Every quiescent session is over a 1-byte budget, so each pass
        // that finds the session live spills it.
        config.session_budget = Some(1);
        config.spill_dir = Some(dir.clone());
        let server = Server::bind(config).expect("bind");
        let shared = &*server.shared;
        let open = SessionCtl::OpenDemo {
            name: "s".to_string(),
            seed: 42,
        };
        session_ctl(&open, &mut String::new(), shared).expect("open");
        let gql = |line: &str| match gql::parse(line) {
            Ok(Some(Request::Gql(cmd))) => cmd,
            other => panic!("{line:?} parsed to {other:?}"),
        };

        // Two passes race each other and the writer: each runs at least
        // 200 times, and on until the writer is through.
        const WRITES: usize = 8;
        let writing = AtomicBool::new(true);
        let written = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut passes = 0;
                    while passes < 200 || writing.load(Ordering::SeqCst) {
                        enforce_budget(shared);
                        assert!(
                            !matches!(shared.registry.lookup("s"), Lookup::Evicted(_)),
                            "a spilled session was dropped"
                        );
                        passes += 1;
                        std::thread::sleep(Duration::from_micros(500));
                    }
                });
            }
            let written = (0..WRITES).try_for_each(|n| {
                let line = format!("dataset E{n} brain");
                run_gql(&gql(&line), "s", shared)
                    .map(drop)
                    .map_err(|e| format!("{line}: {} {}", e.code, e.message))
            });
            writing.store(false, Ordering::SeqCst);
            written
        });
        written.expect("every write is acknowledged");

        assert_eq!(shared.metrics.get(Counter::SpillErrors), 0);
        // Every acknowledged write is in the session the next request sees.
        let lineage = run_gql(&gql("lineage"), "s", shared).expect("lineage");
        for n in 0..WRITES {
            assert!(
                lineage.contains(&format!("E{n} [ENUM]")),
                "acknowledged write E{n} was lost:\n{lineage}"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn idle_sweeper_evicts_between_requests() {
        let mut config = test_config();
        config.idle_timeout = Some(Duration::from_millis(50));
        let (addr, handle, join) = spawn_server(config);
        let mut client = GeaClient::connect(addr).expect("connect");
        client.expect_ok("open nap demo 42").expect("open");
        // Outlast the timeout plus a couple of sweep intervals.
        std::thread::sleep(Duration::from_millis(400));
        let err = client.request("lineage").unwrap().unwrap_err();
        assert_eq!(err.0, "EEVICTED", "{err:?}");
        assert!(err.1.contains("idle"), "{err:?}");
        handle.shutdown();
        join.join().unwrap();
    }
}
