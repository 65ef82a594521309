//! Named shared sessions behind generation-stamped entries.
//!
//! The registry is the server's unit of sharing: several connections can
//! `use` the same named session, readers (`gap`, `topgap`, `show`, …)
//! proceed concurrently, and mutators (`mine`, `dataset`, `delete`, …)
//! serialize behind an exclusive lock. Each entry carries a monotonically
//! increasing **generation**, bumped on every write-lock acquisition — the
//! invalidation signal for the response cache ([`crate::cache`]): a reply
//! computed under generation *g* is valid exactly as long as the entry's
//! generation is still *g*.
//!
//! Lock acquisition takes a deadline. Waiters park on condvar gates (no
//! polling): every guard release wakes exactly the class of waiters that
//! could now be admitted, and a waiter whose deadline passes first turns
//! into a clean `ERR ETIMEOUT` instead of an unbounded stall. The gate is
//! writer-preferring — new readers also wait behind a queued writer, so a
//! steady stream of overlapping reads cannot starve a mutator to its
//! deadline — and the handoff is deterministic: queued writers are
//! admitted in FIFO arrival order (a ticket queue, so a later writer can
//! never overtake an earlier one no matter how the scheduler wakes
//! threads), and a release wakes the writer queue before any parked
//! reader herd; readers flow again only once the queue drains.
//!
//! The registry also enforces an [`EvictionPolicy`]: per-session idle
//! timestamps and approximate memory accounting (via
//! [`gea_core::mem::ApproxMem`], refreshed on every write release) feed an
//! LRU eviction pass against a byte budget plus an idle-timeout sweep.
//! Evicted names leave a tombstone. A plain tombstone makes the next
//! request answer `EEVICTED` (re-open the session) rather than the
//! `ENOSESSION` a typo gets; a **spill** tombstone ([`SpillRecord`])
//! additionally remembers where the server persisted the session's full
//! state, so the next request can restore it transparently instead. The
//! spill commit protocol is two-phase: the server snapshots the session to
//! disk under a read guard, then calls [`SessionRegistry::evict_to_spill`],
//! which commits only if the entry is still the same one, unlocked, and at
//! the generation the snapshot saw — otherwise the stale snapshot is
//! abandoned and the session stays live. A committed eviction **retires**
//! the entry under its gate mutex: a request that looked the entry up
//! before the commit is refused the lock ([`RETIRED`]) instead of writing
//! to an orphan whose state the next request would never see, and resolves
//! the name again.
//!
//! LOCK ORDER: eviction pass mutex -> registry map mutex -> entry gate mutex -> entry session RwLock; never two entries at once; atomics, cache, and metrics are lock-free and safe under any guard.
//!
//! The line above is canonical. `scripts/lint-invariants.sh` requires every
//! other lock-order comment in the server and router sources to quote it
//! verbatim, so the ordering documented at an acquisition site can never
//! drift from what this module actually implements. The map mutex is held
//! only long enough to clone the entry `Arc` (never across a gate wait),
//! and eviction re-takes the map *after* dropping the entry guard — the
//! two-phase spill commit exists precisely to make that safe. The eviction
//! pass mutex (the server's) serializes whole eviction passes, so two never
//! snapshot the same victim at once; no request holds a guard while taking
//! it.

use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use gea_core::mem::ApproxMem;
use gea_core::session::GeaSession;

use crate::engine::EngineError;

/// The error code of a lock request refused because the entry was retired
/// by eviction; the caller resolves the session name again and retries.
pub const RETIRED: &str = "ERETIRED";

/// Why a session left the registry without an explicit `close`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// No request touched the session within the idle timeout.
    IdleTimeout,
    /// The registry was over its memory budget and this was the least
    /// recently used session.
    OverBudget,
}

impl std::fmt::Display for EvictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictReason::IdleTimeout => f.write_str("idle timeout exceeded"),
            EvictReason::OverBudget => f.write_str("session memory budget exceeded"),
        }
    }
}

/// Where an evicted session's state was persisted, recorded in the
/// tombstone so the next request against the name can restore it.
#[derive(Debug, Clone)]
pub struct SpillRecord {
    /// Why the policy chose this session.
    pub reason: EvictReason,
    /// Spill directory holding the session snapshot.
    pub path: PathBuf,
    /// Fingerprint of the snapshot body, verified on restore.
    pub fingerprint: u64,
}

/// What a name that is no longer live left behind.
#[derive(Debug, Clone)]
enum Tombstone {
    /// Evicted without persistence; the state is gone.
    Evicted(EvictReason),
    /// Evicted after a successful spill; the state is on disk.
    Spilled(SpillRecord),
}

/// The registry's eviction knobs. Both default to off.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionPolicy {
    /// Total approximate bytes the registry may hold across sessions;
    /// exceeding it evicts least-recently-used sessions until back under.
    pub session_budget: Option<u64>,
    /// Sessions idle longer than this are evicted by the sweep.
    pub idle_timeout: Option<Duration>,
}

impl EvictionPolicy {
    /// Whether the policy can ever evict anything.
    pub fn is_active(&self) -> bool {
        self.session_budget.is_some() || self.idle_timeout.is_some()
    }
}

/// Admission bookkeeping for one entry's lock: who is inside the
/// reader/writer critical sections. The inner `RwLock` is only ever
/// acquired by admitted threads, so it never blocks.
///
/// Admission is writer-preferring: new readers also hold off while any
/// writer is *queued*, so continuous overlapping read traffic cannot keep
/// `readers` above zero forever and starve a writer to its deadline.
/// Among writers the handoff is FIFO: each parked writer takes a ticket,
/// and only the queue's front ticket is admissible — so which writer wins
/// a release is decided by arrival order, not by which thread the
/// scheduler happens to wake first.
///
/// Writer preference is itself bounded: a continuous chain of queued
/// writers would otherwise park readers until their deadline. After
/// [`READER_ADMIT_EVERY`] consecutive writer→writer handoffs made with
/// readers waiting, the release admits the *waiting reader cohort* (a
/// snapshot of `waiting_readers`, so late-arriving readers cannot extend
/// the break indefinitely) before the next queued writer runs.
#[derive(Default)]
struct Gate {
    readers: u32,
    writer: bool,
    /// Parked writers' tickets in arrival order; only the front is
    /// admissible. A writer that times out removes its own ticket.
    writer_queue: VecDeque<u64>,
    /// Ticket source for `writer_queue`.
    next_ticket: u64,
    /// Readers currently parked on `reader_turn`.
    waiting_readers: u32,
    /// Consecutive writer→writer handoffs made while readers were
    /// waiting; reset whenever a reader is admitted.
    writer_handoffs: u32,
    /// Remaining admissions in the current anti-starvation break: while
    /// nonzero, readers may enter despite queued writers (each admission
    /// or reader timeout consumes one), and queued writers hold off.
    reader_break: u32,
    /// Set once by a committed eviction; every later lock request is
    /// refused.
    retired: bool,
}

impl Gate {
    /// Whether a request holds the lock or is queued to write.
    fn busy(&self) -> bool {
        self.readers > 0 || self.writer || !self.writer_queue.is_empty()
    }
}

/// The starvation bound K: the waiting reader cohort is admitted after
/// every K consecutive writer handoffs made over parked readers.
const READER_ADMIT_EVERY: u32 = 4;

static NEXT_ENTRY_ID: AtomicU64 = AtomicU64::new(1);

/// One registered session: the data, its lock gate, and the stamps the
/// cache and the eviction policy read without locking the session.
pub struct SessionEntry {
    /// Unique per entry, never reused — cache keys carry it so a replaced
    /// or re-opened session under the same name can never serve another
    /// entry's replies.
    id: u64,
    gate: Mutex<Gate>,
    /// Parked writers wait here; signalled whenever the queue's front
    /// writer may have become admissible.
    writer_turn: Condvar,
    /// Parked readers wait here; signalled only once no writer is inside
    /// *and* the writer queue has drained — the deterministic handoff
    /// order is queued writers first, reader herds after.
    reader_turn: Condvar,
    data: RwLock<GeaSession>,
    /// Bumped on every write-lock acquisition.
    generation: AtomicU64,
    /// Refreshed on open and on every write release.
    approx_bytes: AtomicU64,
    last_used: Mutex<Instant>,
    /// Fingerprint of the corpus the session was opened over, when known.
    /// Lets the response cache share pure-read replies between pristine
    /// (generation-0) sessions opened over an identical corpus. `None`
    /// (restored or adopted sessions) simply opts the entry out of
    /// sharing; correctness never depends on it being set.
    corpus_fingerprint: Option<u64>,
}

/// A shared handle to one session entry.
pub type SharedSession = Arc<SessionEntry>;

impl SessionEntry {
    fn new(session: GeaSession) -> SessionEntry {
        SessionEntry::with_fingerprint(session, None)
    }

    fn with_fingerprint(session: GeaSession, corpus_fingerprint: Option<u64>) -> SessionEntry {
        let bytes = session.approx_bytes() as u64;
        SessionEntry {
            id: NEXT_ENTRY_ID.fetch_add(1, Ordering::Relaxed),
            gate: Mutex::new(Gate::default()),
            writer_turn: Condvar::new(),
            reader_turn: Condvar::new(),
            data: RwLock::new(session),
            generation: AtomicU64::new(0),
            approx_bytes: AtomicU64::new(bytes),
            last_used: Mutex::new(Instant::now()),
            corpus_fingerprint,
        }
    }

    /// The entry's unique id (a cache-key component).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fingerprint of the corpus this session was opened over, if the
    /// opener computed one (see the field doc for what `None` means).
    pub fn corpus_fingerprint(&self) -> Option<u64> {
        self.corpus_fingerprint
    }

    /// Current generation: the number of write-lock acquisitions so far.
    /// Stable while any read guard is held (writers are excluded), so a
    /// reply computed under a read guard is correctly stamped by reading
    /// this after acquisition.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Approximate session footprint, as of the last write release.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// How long since a request last acquired this entry's lock.
    pub fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .elapsed()
    }

    /// Whether a request currently holds the lock (either side) or is
    /// queued to write.
    pub fn is_busy(&self) -> bool {
        self.gate.lock().unwrap_or_else(|e| e.into_inner()).busy()
    }

    /// Retire the entry unless it is busy, already retired, or (when
    /// `expected_generation` is given) past that generation. Checked and set
    /// under the gate mutex, so no lock can be admitted in between, and
    /// nobody is parked: readers park only behind a writer, held or queued.
    fn retire(&self, expected_generation: Option<u64>) -> bool {
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        // A writer bumps the generation while `gate.writer` is set, so with
        // the gate idle the generation is stable.
        if gate.retired
            || gate.busy()
            || expected_generation.is_some_and(|g| g != self.generation())
        {
            return false;
        }
        gate.retired = true;
        true
    }

    /// Record request activity now (the idle sweep's input). Called on
    /// every lock acquisition, and by the server's cache-hit path — which
    /// serves replies without ever taking the session lock, so hits must
    /// refresh the stamp explicitly or the sweeper would evict a session
    /// that is actively queried from cache.
    pub(crate) fn touch(&self) {
        *self.last_used.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
    }

    /// Acquire a shared read guard, parking on the gate's condvar until
    /// admitted or `timeout` elapses (`ETIMEOUT`). Readers yield to queued
    /// writers (see [`Gate`]). A retired entry refuses with [`RETIRED`]. A
    /// poisoned inner lock (a panicking writer) is recovered: the algebra
    /// leaves the session consistent between commands, so the state is
    /// still usable.
    pub fn read_with_deadline(
        &self,
        timeout: Duration,
    ) -> Result<SessionReadGuard<'_>, EngineError> {
        let deadline = Instant::now() + timeout;
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if gate.retired {
            return Err(retired_err());
        }
        let mut parked = false;
        while gate.writer || (!gate.writer_queue.is_empty() && gate.reader_break == 0) {
            let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                if parked {
                    gate.waiting_readers = gate.waiting_readers.saturating_sub(1);
                    // A break slot reserved for this reader must not
                    // outlive it, or queued writers would stall on a
                    // break nobody is left to consume.
                    gate.reader_break = gate.reader_break.saturating_sub(1);
                }
                return Err(timeout_err("read", timeout));
            };
            if !parked {
                parked = true;
                gate.waiting_readers += 1;
            }
            gate = self
                .reader_turn
                .wait_timeout(gate, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        if parked {
            gate.waiting_readers = gate.waiting_readers.saturating_sub(1);
        }
        if gate.reader_break > 0 {
            gate.reader_break -= 1;
        }
        // A reader got through: any writer-handoff chain is broken.
        gate.writer_handoffs = 0;
        gate.readers += 1;
        let break_over = gate.reader_break == 0;
        drop(gate);
        if !break_over {
            // More cohort members may still be parked; keep waking them.
            self.reader_turn.notify_all();
        }
        self.touch();
        // Admitted: no writer is inside, so the inner lock cannot block.
        let inner = self.data.read().unwrap_or_else(|e| e.into_inner());
        Ok(SessionReadGuard {
            inner: Some(inner),
            entry: self,
        })
    }

    /// Acquire the exclusive write guard, parking until admitted or
    /// `timeout` elapses. Writers are admitted strictly in arrival order
    /// (the gate's ticket queue). Bumps the generation **at acquisition**,
    /// so any cached reply stamped with an earlier generation is invalid
    /// from this point on, before the writer mutates anything. A retired
    /// entry refuses with [`RETIRED`].
    pub fn write_with_deadline(
        &self,
        timeout: Duration,
    ) -> Result<SessionWriteGuard<'_>, EngineError> {
        let deadline = Instant::now() + timeout;
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if gate.retired {
            return Err(retired_err());
        }
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        gate.writer_queue.push_back(ticket);
        while gate.writer
            || gate.readers > 0
            || gate.reader_break > 0
            || gate.writer_queue.front() != Some(&ticket)
        {
            let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                let was_front = gate.writer_queue.front() == Some(&ticket);
                gate.writer_queue.retain(|&t| t != ticket);
                let drained = gate.writer_queue.is_empty();
                drop(gate);
                if drained {
                    // Readers held off by this queued writer may be
                    // admissible again.
                    self.reader_turn.notify_all();
                } else if was_front {
                    // The queue has a new front writer; let it re-check.
                    self.writer_turn.notify_all();
                }
                return Err(timeout_err("write", timeout));
            };
            gate = self
                .writer_turn
                .wait_timeout(gate, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        let front = gate.writer_queue.pop_front();
        debug_assert_eq!(front, Some(ticket));
        gate.writer = true;
        drop(gate);
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.touch();
        let inner = self.data.write().unwrap_or_else(|e| e.into_inner());
        Ok(SessionWriteGuard {
            inner: Some(inner),
            entry: self,
        })
    }
}

fn retired_err() -> EngineError {
    EngineError::new(
        RETIRED,
        "the session was evicted while this request waited for it; retry",
    )
}

fn timeout_err(what: &str, timeout: Duration) -> EngineError {
    EngineError::new(
        "ETIMEOUT",
        format!(
            "could not acquire {what} lock within {} ms",
            timeout.as_millis()
        ),
    )
}

/// A shared read guard; releasing it wakes gate waiters.
pub struct SessionReadGuard<'a> {
    inner: Option<RwLockReadGuard<'a, GeaSession>>,
    entry: &'a SessionEntry,
}

impl Deref for SessionReadGuard<'_> {
    type Target = GeaSession;

    fn deref(&self) -> &GeaSession {
        self.inner.as_ref().expect("guard live")
    }
}

impl Drop for SessionReadGuard<'_> {
    fn drop(&mut self) {
        drop(self.inner.take());
        let mut gate = self.entry.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.readers = gate.readers.saturating_sub(1);
        // Only a drained read side can admit anyone, and then only the
        // queue's front writer: readers never wait on other readers.
        let wake_writers = gate.readers == 0 && !gate.writer_queue.is_empty();
        drop(gate);
        if wake_writers {
            self.entry.writer_turn.notify_all();
        }
    }
}

/// The exclusive write guard; releasing it refreshes the entry's
/// approximate size and wakes gate waiters.
pub struct SessionWriteGuard<'a> {
    inner: Option<RwLockWriteGuard<'a, GeaSession>>,
    entry: &'a SessionEntry,
}

impl Deref for SessionWriteGuard<'_> {
    type Target = GeaSession;

    fn deref(&self) -> &GeaSession {
        self.inner.as_ref().expect("guard live")
    }
}

impl DerefMut for SessionWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut GeaSession {
        self.inner.as_mut().expect("guard live")
    }
}

impl Drop for SessionWriteGuard<'_> {
    fn drop(&mut self) {
        if let Some(guard) = self.inner.take() {
            let bytes = guard.approx_bytes() as u64;
            drop(guard);
            self.entry.approx_bytes.store(bytes, Ordering::Relaxed);
        }
        let mut gate = self.entry.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.writer = false;
        // Deterministic handoff: the writer queue is served before any
        // parked reader herd — but only up to the starvation bound. After
        // `READER_ADMIT_EVERY` consecutive writer→writer handoffs made over
        // waiting readers, the waiting cohort is admitted first.
        let writers_waiting = !gate.writer_queue.is_empty();
        if writers_waiting && gate.waiting_readers > 0 {
            gate.writer_handoffs += 1;
            if gate.writer_handoffs >= READER_ADMIT_EVERY {
                gate.writer_handoffs = 0;
                gate.reader_break = gate.waiting_readers;
                drop(gate);
                self.entry.reader_turn.notify_all();
                return;
            }
        } else {
            gate.writer_handoffs = 0;
        }
        drop(gate);
        if writers_waiting {
            self.entry.writer_turn.notify_all();
        } else {
            self.entry.reader_turn.notify_all();
        }
    }
}

/// One row of [`SessionRegistry::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Registry name.
    pub name: String,
    /// Connections currently sharing the entry (the registry's own
    /// reference excluded).
    pub attached: usize,
    /// Current generation.
    pub generation: u64,
    /// Approximate footprint in bytes.
    pub approx_bytes: u64,
}

/// The result of a registry lookup.
pub enum Lookup {
    /// The session is live.
    Found(SharedSession),
    /// The session was evicted without persistence; re-open it.
    Evicted(EvictReason),
    /// The session was spilled to disk; restore it from the record.
    Spilled(SpillRecord),
    /// No such session was ever opened (or it was closed explicitly).
    Missing,
}

/// The outcome of [`SessionRegistry::adopt_restored`].
pub enum Adopt {
    /// The restored session was installed under a fresh entry.
    Installed(SharedSession),
    /// Another request restored (or re-opened) the name first; use that
    /// entry and discard the duplicate restoration.
    Existing(SharedSession),
    /// The spill tombstone is gone or superseded (the name was closed or
    /// replaced while the restore ran); the restoration must be dropped.
    Stale,
}

#[derive(Default)]
struct Inner {
    live: HashMap<String, SharedSession>,
    evicted: HashMap<String, Tombstone>,
}

/// The named-session registry.
#[derive(Default)]
pub struct SessionRegistry {
    inner: RwLock<Inner>,
}

impl SessionRegistry {
    /// Create an empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Install a session under `name`, replacing any previous one (the
    /// thesis GUI's "new session" semantics) and clearing any eviction
    /// tombstone. Returns the replaced entry, if any, so the caller can
    /// purge its cached replies. Connections still attached to a replaced
    /// session keep their `Arc` and finish against the old state.
    pub fn open(&self, name: &str, session: GeaSession) -> Option<SharedSession> {
        self.open_with_fingerprint(name, session, None)
    }

    /// [`SessionRegistry::open`], additionally stamping the entry with the
    /// corpus fingerprint so pristine twins can share cached replies.
    pub fn open_with_fingerprint(
        &self,
        name: &str,
        session: GeaSession,
        corpus_fingerprint: Option<u64>,
    ) -> Option<SharedSession> {
        let entry = Arc::new(SessionEntry::with_fingerprint(session, corpus_fingerprint));
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.evicted.remove(name);
        inner.live.insert(name.to_string(), entry)
    }

    /// Look up a live session by name (eviction-blind; prefer
    /// [`SessionRegistry::lookup`] on request paths).
    pub fn get(&self, name: &str) -> Option<SharedSession> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .get(name)
            .cloned()
    }

    /// Look up a session, distinguishing "evicted" and "spilled" from
    /// "never opened".
    pub fn lookup(&self, name: &str) -> Lookup {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        if let Some(arc) = inner.live.get(name) {
            return Lookup::Found(Arc::clone(arc));
        }
        match inner.evicted.get(name) {
            Some(Tombstone::Evicted(reason)) => Lookup::Evicted(*reason),
            Some(Tombstone::Spilled(record)) => Lookup::Spilled(record.clone()),
            None => Lookup::Missing,
        }
    }

    /// Drop a session, returning its entry (for cache purging). Clears an
    /// eviction tombstone even when no live session exists, so an evicted
    /// name can be `close`d without error.
    pub fn close_entry(&self, name: &str) -> Option<SharedSession> {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.evicted.remove(name);
        inner.live.remove(name)
    }

    /// Drop a session. Returns `false` if no such session existed.
    pub fn close(&self, name: &str) -> bool {
        self.close_entry(name).is_some()
    }

    /// Sorted session rows: name, attachment count, generation, size.
    pub fn list(&self) -> Vec<SessionInfo> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<SessionInfo> = inner
            .live
            .iter()
            .map(|(name, arc)| SessionInfo {
                name: name.clone(),
                attached: Arc::strong_count(arc) - 1,
                generation: arc.generation(),
                approx_bytes: arc.approx_bytes(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate bytes across live sessions.
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .values()
            .map(|e| e.approx_bytes())
            .sum()
    }

    /// The one victim selection, read-only: which sessions the policy
    /// would evict right now, and why. The idle sweep's victims come
    /// first (a session whose lock is held is not idle), then the budget
    /// pass's in LRU order (busy sessions skipped, victims already chosen
    /// by the idle pass not double-counted). Nothing is removed — the
    /// caller commits each victim individually via
    /// [`SessionRegistry::evict`], or, having snapshotted it to disk, via
    /// [`SessionRegistry::evict_to_spill`]; both re-check at the commit.
    pub fn eviction_candidates(
        &self,
        policy: &EvictionPolicy,
    ) -> Vec<(String, SharedSession, EvictReason)> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, SharedSession, EvictReason)> = Vec::new();
        if let Some(idle) = policy.idle_timeout {
            for (name, entry) in inner.live.iter() {
                if !entry.is_busy() && entry.idle_for() > idle {
                    out.push((name.clone(), Arc::clone(entry), EvictReason::IdleTimeout));
                }
            }
        }
        if let Some(budget) = policy.session_budget {
            let mut total: u64 = inner.live.values().map(|e| e.approx_bytes()).sum();
            for (_, entry, _) in &out {
                total = total.saturating_sub(entry.approx_bytes());
            }
            let mut rest: Vec<(Duration, &String, &SharedSession)> = inner
                .live
                .iter()
                .filter(|(name, entry)| {
                    !entry.is_busy() && !out.iter().any(|(chosen, _, _)| chosen == *name)
                })
                .map(|(name, entry)| (entry.idle_for(), name, entry))
                .collect();
            rest.sort_by_key(|r| std::cmp::Reverse(r.0)); // most idle first
            for (_, name, entry) in rest {
                if total <= budget {
                    break;
                }
                total = total.saturating_sub(entry.approx_bytes());
                out.push((name.clone(), Arc::clone(entry), EvictReason::OverBudget));
            }
        }
        out
    }

    /// Commit a spill: atomically retire the entry and replace it with a
    /// spill tombstone, but only if `name` still maps to this exact entry,
    /// the entry is unlocked, and its generation still equals
    /// `expected_generation` (the generation the on-disk snapshot was
    /// taken under). Returns `false` — snapshot stale, session stays
    /// live — otherwise.
    pub fn evict_to_spill(
        &self,
        name: &str,
        entry: &SharedSession,
        expected_generation: u64,
        record: SpillRecord,
    ) -> bool {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let same = inner.live.get(name).is_some_and(|e| e.id() == entry.id());
        if !same || !entry.retire(Some(expected_generation)) {
            return false;
        }
        inner.live.remove(name);
        inner
            .evicted
            .insert(name.to_string(), Tombstone::Spilled(record));
        true
    }

    /// Evict one entry without persistence, leaving an `EEVICTED`
    /// tombstone, with the same still-same-entry and not-busy checks and
    /// the same retirement as [`SessionRegistry::evict_to_spill`].
    pub fn evict(&self, name: &str, entry: &SharedSession, reason: EvictReason) -> bool {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let same = inner.live.get(name).is_some_and(|e| e.id() == entry.id());
        if !same || !entry.retire(None) {
            return false;
        }
        inner.live.remove(name);
        inner
            .evicted
            .insert(name.to_string(), Tombstone::Evicted(reason));
        true
    }

    /// Install a session restored from a spill under a **fresh** entry
    /// (new id, generation 0 — stale cached replies for the old entry can
    /// never match). Succeeds only while the name still carries the spill
    /// tombstone for `expected_path`; races are reported, not clobbered:
    /// a concurrent restore or re-open wins and the caller's copy is
    /// dropped.
    pub fn adopt_restored(&self, name: &str, session: GeaSession, expected_path: &Path) -> Adopt {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(arc) = inner.live.get(name) {
            return Adopt::Existing(Arc::clone(arc));
        }
        match inner.evicted.get(name) {
            Some(Tombstone::Spilled(record)) if record.path == expected_path => {
                inner.evicted.remove(name);
                let entry = Arc::new(SessionEntry::new(session));
                inner.live.insert(name.to_string(), Arc::clone(&entry));
                Adopt::Installed(entry)
            }
            _ => Adopt::Stale,
        }
    }

    /// Demote a spill tombstone to a plain eviction tombstone after its
    /// snapshot proved unreadable, so later requests answer `EEVICTED`
    /// instead of retrying the broken restore forever. No-op unless the
    /// name still carries the spill tombstone for `path`.
    pub fn downgrade_spill(&self, name: &str, path: &Path) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(Tombstone::Spilled(record)) = inner.evicted.get(name) {
            if record.path == path {
                let reason = record.reason;
                inner
                    .evicted
                    .insert(name.to_string(), Tombstone::Evicted(reason));
            }
        }
    }

    /// Remove and return a spill tombstone's record, if `name` has one.
    /// The `open` and `close` paths use this to delete the now-dead spill
    /// directory from disk.
    pub fn take_spill(&self, name: &str) -> Option<SpillRecord> {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        match inner.evicted.get(name) {
            Some(Tombstone::Spilled(_)) => match inner.evicted.remove(name) {
                Some(Tombstone::Spilled(record)) => Some(record),
                _ => unreachable!("tombstone changed under the write lock"),
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gea_sage::clean::CleaningConfig;
    use gea_sage::generate::{generate, GeneratorConfig};

    fn demo_session() -> GeaSession {
        let (corpus, _) = generate(&GeneratorConfig::demo(42));
        GeaSession::open(corpus, &CleaningConfig::default()).unwrap()
    }

    #[test]
    fn open_use_close_lifecycle() {
        let reg = SessionRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.open("a", demo_session()).is_none());
        let replaced = reg.open("a", demo_session());
        assert!(replaced.is_some(), "second open replaces");
        let first_id = replaced.unwrap().id();
        assert_ne!(
            reg.get("a").unwrap().id(),
            first_id,
            "entry ids are never reused"
        );
        assert_eq!(reg.len(), 1);
        let held = reg.get("a").expect("session a");
        let listed = reg.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "a");
        assert_eq!(listed[0].attached, 1);
        assert_eq!(listed[0].generation, 0);
        assert!(listed[0].approx_bytes > 0, "sized on open");
        drop(held);
        assert_eq!(reg.list()[0].attached, 0);
        assert!(reg.get("b").is_none());
        assert!(reg.close("a"));
        assert!(!reg.close("a"));
    }

    #[test]
    fn read_lock_times_out_behind_a_writer() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let guard = shared.write_with_deadline(Duration::from_secs(1)).unwrap();
        let err = match shared.read_with_deadline(Duration::from_millis(10)) {
            Err(e) => e,
            Ok(_) => panic!("read lock acquired behind a writer"),
        };
        assert_eq!(err.code, "ETIMEOUT");
        drop(guard);
        assert!(shared.read_with_deadline(Duration::from_millis(10)).is_ok());
        // Readers share.
        let r1 = shared
            .read_with_deadline(Duration::from_millis(10))
            .unwrap();
        let r2 = shared
            .read_with_deadline(Duration::from_millis(10))
            .unwrap();
        drop((r1, r2));
    }

    #[test]
    fn contended_read_timeout_is_within_tolerance() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let guard = shared.write_with_deadline(Duration::from_secs(5)).unwrap();
        let deadline = Duration::from_millis(60);
        let started = Instant::now();
        let err = match shared.read_with_deadline(deadline) {
            Err(e) => e,
            Ok(_) => panic!("read lock acquired behind a writer"),
        };
        let elapsed = started.elapsed();
        assert_eq!(err.code, "ETIMEOUT");
        // The condvar wait returns promptly at the deadline: not early,
        // and without polling slack (generous upper bound for CI noise).
        assert!(elapsed >= deadline, "returned early: {elapsed:?}");
        assert!(
            elapsed < deadline + Duration::from_millis(500),
            "deadline overshot: {elapsed:?}"
        );
        drop(guard);
    }

    #[test]
    fn parked_reader_wakes_on_write_release() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let guard = shared.write_with_deadline(Duration::from_secs(1)).unwrap();
        let contender = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            contender
                .read_with_deadline(Duration::from_secs(10))
                .map(|_| ())
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(guard);
        t.join()
            .expect("reader thread")
            .expect("reader admitted after write release");
    }

    #[test]
    fn queued_writer_holds_off_new_readers() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let first_reader = shared.read_with_deadline(Duration::from_secs(1)).unwrap();
        let writer_entry = Arc::clone(&shared);
        let writer = std::thread::spawn(move || {
            writer_entry
                .write_with_deadline(Duration::from_secs(10))
                .map(|_| ())
        });
        // Let the writer park behind the held read guard.
        std::thread::sleep(Duration::from_millis(50));
        // A new reader waits behind the queued writer instead of extending
        // the read phase (which would starve the writer).
        let err = match shared.read_with_deadline(Duration::from_millis(50)) {
            Err(e) => e,
            Ok(_) => panic!("reader admitted past a queued writer"),
        };
        assert_eq!(err.code, "ETIMEOUT");
        drop(first_reader);
        writer
            .join()
            .expect("writer thread")
            .expect("writer admitted once readers drain");
        // With no writer queued, readers flow again.
        assert!(shared
            .read_with_deadline(Duration::from_millis(100))
            .is_ok());
    }

    #[test]
    fn writer_handoff_is_fifo_and_beats_reader_herds() {
        // Regression test for the old single-condvar gate: releasing a
        // guard woke *every* waiter, and whichever parked writer the
        // scheduler ran first won the lock — so under load writers were
        // admitted in scheduler order, not arrival order. Provoke that
        // race repeatedly: with the ticket queue the admission order is
        // deterministic (earlier writer first, reader herd strictly
        // after the queue drains) on every round.
        for round in 0..10 {
            let reg = SessionRegistry::new();
            reg.open("a", demo_session());
            let shared = reg.get("a").unwrap();
            let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let held = shared.read_with_deadline(Duration::from_secs(1)).unwrap();

            let mut threads = Vec::new();
            for writer in ["w1", "w2"] {
                let entry = Arc::clone(&shared);
                let order = Arc::clone(&order);
                threads.push(std::thread::spawn(move || {
                    let g = entry.write_with_deadline(Duration::from_secs(10)).unwrap();
                    order.lock().unwrap().push(writer.to_string());
                    std::thread::sleep(Duration::from_millis(2));
                    drop(g);
                }));
                // Park w1 before w2 takes its ticket, so arrival order is
                // the one the queue must preserve.
                std::thread::sleep(Duration::from_millis(30));
            }
            // A herd of readers arrives while both writers are queued.
            for r in 0..6 {
                let entry = Arc::clone(&shared);
                let order = Arc::clone(&order);
                threads.push(std::thread::spawn(move || {
                    let g = entry.read_with_deadline(Duration::from_secs(10)).unwrap();
                    order.lock().unwrap().push(format!("r{r}"));
                    drop(g);
                }));
            }
            std::thread::sleep(Duration::from_millis(30));
            drop(held);
            for t in threads {
                t.join().expect("waiter thread");
            }
            let order = order.lock().unwrap();
            assert_eq!(order.len(), 8);
            assert_eq!(
                &order[..2],
                ["w1", "w2"],
                "round {round}: writers admitted out of arrival order: {order:?}"
            );
            assert!(
                order[2..].iter().all(|o| o.starts_with('r')),
                "round {round}: a reader was admitted before the writer queue drained: {order:?}"
            );
        }
    }

    #[test]
    fn reader_cohort_is_admitted_after_k_writer_handoffs() {
        // The starvation bound on writer preference: a chain of K + 4
        // queued writers must not run to completion over parked readers —
        // after K writer→writer handoffs the waiting reader cohort is
        // admitted, then the chain resumes.
        let k = READER_ADMIT_EVERY as usize;
        let writers: Vec<String> = (1..=k + 4).map(|w| format!("w{w}")).collect();
        for round in 0..10 {
            let reg = SessionRegistry::new();
            reg.open("a", demo_session());
            let shared = reg.get("a").unwrap();
            let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let held = shared.write_with_deadline(Duration::from_secs(1)).unwrap();

            let mut threads = Vec::new();
            for w in &writers {
                let entry = Arc::clone(&shared);
                let order = Arc::clone(&order);
                let w = w.clone();
                threads.push(std::thread::spawn(move || {
                    let g = entry.write_with_deadline(Duration::from_secs(10)).unwrap();
                    order.lock().unwrap().push(w);
                    std::thread::sleep(Duration::from_millis(2));
                    drop(g);
                }));
                std::thread::sleep(Duration::from_millis(20));
            }
            for r in 0..2 {
                let entry = Arc::clone(&shared);
                let order = Arc::clone(&order);
                threads.push(std::thread::spawn(move || {
                    let g = entry.read_with_deadline(Duration::from_secs(10)).unwrap();
                    order.lock().unwrap().push(format!("r{r}"));
                    drop(g);
                }));
            }
            // Let both readers park behind the queued writers.
            std::thread::sleep(Duration::from_millis(30));
            drop(held);
            for t in threads {
                t.join().expect("waiter thread");
            }
            let order = order.lock().unwrap();
            assert_eq!(order.len(), writers.len() + 2, "round {round}: {order:?}");
            // The held guard's release over parked readers is handoff #1,
            // w1's release is #2, … — so the cohort runs after w(K−1).
            assert_eq!(
                &order[..k - 1],
                &writers[..k - 1],
                "round {round}: {order:?}"
            );
            assert!(
                order[k - 1].starts_with('r') && order[k].starts_with('r'),
                "round {round}: reader cohort not admitted after {k} handoffs: {order:?}"
            );
            assert_eq!(
                &order[k + 1..],
                &writers[k - 1..],
                "round {round}: writer chain did not resume in order: {order:?}"
            );
        }
    }

    #[test]
    fn timed_out_writer_readmits_readers() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let held = shared.read_with_deadline(Duration::from_secs(1)).unwrap();
        let writer_entry = Arc::clone(&shared);
        let res = std::thread::spawn(move || {
            writer_entry
                .write_with_deadline(Duration::from_millis(50))
                .map(|_| ())
        })
        .join()
        .expect("writer thread");
        assert_eq!(res.unwrap_err().code, "ETIMEOUT");
        // The timed-out writer no longer counts as queued: a new reader is
        // admitted even while the first guard is still held.
        let r = shared
            .read_with_deadline(Duration::from_millis(100))
            .expect("reader admitted after writer gave up");
        drop((r, held));
    }

    #[test]
    fn generation_bumps_on_every_write_acquisition() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        assert_eq!(shared.generation(), 0);
        for expect in 1..=3 {
            let g = shared.write_with_deadline(Duration::from_secs(1)).unwrap();
            assert_eq!(shared.generation(), expect, "bumped at acquisition");
            drop(g);
            assert_eq!(shared.generation(), expect);
        }
        // Reads never bump.
        let r = shared.read_with_deadline(Duration::from_secs(1)).unwrap();
        drop(r);
        assert_eq!(shared.generation(), 3);
    }

    #[test]
    fn write_release_refreshes_size_estimate() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let before = shared.approx_bytes();
        assert!(before > 0);
        {
            let mut g = shared.write_with_deadline(Duration::from_secs(1)).unwrap();
            g.create_tissue_dataset("Eb", &gea_sage::TissueType::Brain)
                .unwrap();
        }
        assert!(
            shared.approx_bytes() > before,
            "size not refreshed on write release"
        );
    }

    /// One eviction pass as the server runs it without a spill directory:
    /// choose read-only, commit each victim with the re-check.
    fn evict_pass(reg: &SessionRegistry, policy: &EvictionPolicy) -> Vec<String> {
        reg.eviction_candidates(policy)
            .into_iter()
            .filter(|(name, entry, reason)| reg.evict(name, entry, *reason))
            .map(|(name, _, _)| name)
            .collect()
    }

    fn idle(timeout: Duration) -> EvictionPolicy {
        EvictionPolicy {
            session_budget: None,
            idle_timeout: Some(timeout),
        }
    }

    fn budget(bytes: u64) -> EvictionPolicy {
        EvictionPolicy {
            session_budget: Some(bytes),
            idle_timeout: None,
        }
    }

    #[test]
    fn idle_sweep_evicts_and_leaves_a_tombstone() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            evict_pass(&reg, &idle(Duration::from_secs(60))).is_empty(),
            "fresh session survives a long timeout"
        );
        assert_eq!(evict_pass(&reg, &idle(Duration::from_millis(10))), ["a"]);
        assert!(reg.is_empty());
        assert!(matches!(
            reg.lookup("a"),
            Lookup::Evicted(EvictReason::IdleTimeout)
        ));
        assert!(matches!(reg.lookup("never-opened"), Lookup::Missing));
        // Re-opening clears the tombstone.
        reg.open("a", demo_session());
        assert!(matches!(reg.lookup("a"), Lookup::Found(_)));
    }

    #[test]
    fn idle_sweep_skips_busy_sessions() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Chosen while quiescent, busy by the time of the commit: skipped,
        // not dropped.
        let chosen = reg.eviction_candidates(&idle(Duration::from_millis(1)));
        assert_eq!(chosen.len(), 1);
        let guard = shared.write_with_deadline(Duration::from_secs(1)).unwrap();
        assert!(!reg.evict(&chosen[0].0, &chosen[0].1, chosen[0].2));
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            evict_pass(&reg, &idle(Duration::from_millis(1))).is_empty(),
            "a session holding its lock is not idle"
        );
        drop(guard);
        assert!(matches!(reg.lookup("a"), Lookup::Found(_)));
    }

    #[test]
    fn budget_evicts_in_lru_order() {
        let reg = SessionRegistry::new();
        reg.open("old", demo_session());
        reg.open("mid", demo_session());
        reg.open("new", demo_session());
        // Touch in age order: `old` is least recently used, `new` most.
        for name in ["old", "mid", "new"] {
            std::thread::sleep(Duration::from_millis(15));
            drop(
                reg.get(name)
                    .unwrap()
                    .read_with_deadline(Duration::from_secs(1))
                    .unwrap(),
            );
        }
        let per_session = reg.total_bytes() / 3;
        // Budget for roughly one session: the two least recently used go.
        let evicted = evict_pass(&reg, &budget(per_session + per_session / 2));
        assert_eq!(evicted, ["old", "mid"], "LRU order violated");
        assert_eq!(reg.len(), 1);
        assert!(reg.get("new").is_some());
        assert!(matches!(
            reg.lookup("old"),
            Lookup::Evicted(EvictReason::OverBudget)
        ));
        // A generous budget evicts nothing further.
        assert!(evict_pass(&reg, &budget(u64::MAX)).is_empty());
        // Closing an evicted name clears the tombstone without error.
        reg.close("mid");
        assert!(matches!(reg.lookup("mid"), Lookup::Missing));
    }

    fn spill_record(path: &str) -> SpillRecord {
        SpillRecord {
            reason: EvictReason::IdleTimeout,
            path: PathBuf::from(path),
            fingerprint: 7,
        }
    }

    #[test]
    fn spill_commit_verifies_entry_generation_and_busyness() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let generation = shared.generation();

        // A write between snapshot and commit bumps the generation: the
        // stale snapshot must not commit and the session stays live.
        drop(shared.write_with_deadline(Duration::from_secs(1)).unwrap());
        assert!(!reg.evict_to_spill("a", &shared, generation, spill_record("/tmp/x")));
        assert!(matches!(reg.lookup("a"), Lookup::Found(_)));

        // A busy entry is never committed either.
        let generation = shared.generation();
        let guard = shared.read_with_deadline(Duration::from_secs(1)).unwrap();
        assert!(!reg.evict_to_spill("a", &shared, generation, spill_record("/tmp/x")));
        drop(guard);

        // Quiescent at the snapshot generation: the commit lands and the
        // lookup now reports the spill record.
        assert!(reg.evict_to_spill("a", &shared, generation, spill_record("/tmp/x")));
        match reg.lookup("a") {
            Lookup::Spilled(record) => {
                assert_eq!(record.path, Path::new("/tmp/x"));
                assert_eq!(record.fingerprint, 7);
            }
            _ => panic!("expected a spill tombstone"),
        }
        // Committing again against the gone entry is refused.
        assert!(!reg.evict_to_spill("a", &shared, generation, spill_record("/tmp/x")));
    }

    #[test]
    fn a_looked_up_entry_refuses_locks_once_spilled() {
        // A request resolved the name, then the eviction committed before
        // it took the lock: its write must not land on the orphaned entry
        // (the spill holds the state the next request restores).
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let Lookup::Found(looked_up) = reg.lookup("a") else {
            panic!("expected a live session");
        };
        assert!(reg.evict_to_spill("a", &looked_up, 0, spill_record("/tmp/x")));
        for result in [
            looked_up
                .write_with_deadline(Duration::from_secs(1))
                .map(drop),
            looked_up
                .read_with_deadline(Duration::from_secs(1))
                .map(drop),
        ] {
            match result {
                Err(e) => assert_eq!(e.code, RETIRED, "{}", e.message),
                Ok(()) => panic!("a lock on a spilled entry was admitted"),
            }
        }
        assert_eq!(looked_up.generation(), 0, "no write was admitted");

        // A plain (lossy) eviction retires the entry the same way.
        reg.open("b", demo_session());
        let b = reg.get("b").unwrap();
        assert!(reg.evict("b", &b, EvictReason::OverBudget));
        assert!(b.write_with_deadline(Duration::from_secs(1)).is_err());
    }

    #[test]
    fn adopt_restored_races_and_downgrade() {
        let reg = SessionRegistry::new();
        reg.open("a", demo_session());
        let shared = reg.get("a").unwrap();
        let old_id = shared.id();
        assert!(reg.evict_to_spill("a", &shared, 0, spill_record("/tmp/a")));

        // Wrong path (a newer spill superseded the one we restored) is
        // stale; the tombstone is untouched.
        assert!(matches!(
            reg.adopt_restored("a", demo_session(), Path::new("/tmp/other")),
            Adopt::Stale
        ));
        // Matching path installs a *fresh* entry: new id, generation 0.
        let installed = match reg.adopt_restored("a", demo_session(), Path::new("/tmp/a")) {
            Adopt::Installed(arc) => arc,
            _ => panic!("expected install"),
        };
        assert_ne!(installed.id(), old_id, "restored entry ids are fresh");
        assert_eq!(installed.generation(), 0);
        // A second (racing) restore finds the live entry instead.
        match reg.adopt_restored("a", demo_session(), Path::new("/tmp/a")) {
            Adopt::Existing(arc) => assert_eq!(arc.id(), installed.id()),
            _ => panic!("expected the existing entry"),
        }

        // Downgrade demotes a spill tombstone to a plain eviction.
        reg.open("b", demo_session());
        let b = reg.get("b").unwrap();
        assert!(reg.evict_to_spill("b", &b, 0, spill_record("/tmp/b")));
        reg.downgrade_spill("b", Path::new("/elsewhere")); // wrong path: no-op
        assert!(matches!(reg.lookup("b"), Lookup::Spilled(_)));
        reg.downgrade_spill("b", Path::new("/tmp/b"));
        assert!(matches!(
            reg.lookup("b"),
            Lookup::Evicted(EvictReason::IdleTimeout)
        ));
        assert!(matches!(
            reg.adopt_restored("b", demo_session(), Path::new("/tmp/b")),
            Adopt::Stale
        ));

        // take_spill removes the record exactly once.
        reg.open("c", demo_session());
        let c = reg.get("c").unwrap();
        assert!(reg.evict_to_spill("c", &c, 0, spill_record("/tmp/c")));
        let rec = reg.take_spill("c").expect("spill record");
        assert_eq!(rec.path, Path::new("/tmp/c"));
        assert!(reg.take_spill("c").is_none());
        assert!(matches!(reg.lookup("c"), Lookup::Missing));
    }

    #[test]
    fn eviction_candidates_is_read_only_and_lru_ordered() {
        let reg = SessionRegistry::new();
        reg.open("old", demo_session());
        reg.open("new", demo_session());
        for name in ["old", "new"] {
            std::thread::sleep(Duration::from_millis(15));
            drop(
                reg.get(name)
                    .unwrap()
                    .read_with_deadline(Duration::from_secs(1))
                    .unwrap(),
            );
        }
        let per_session = reg.total_bytes() / 2;
        let policy = EvictionPolicy {
            session_budget: Some(per_session + per_session / 2),
            idle_timeout: None,
        };
        let candidates = reg.eviction_candidates(&policy);
        assert_eq!(candidates.len(), 1, "one eviction brings us under budget");
        assert_eq!(candidates[0].0, "old", "LRU first");
        assert_eq!(candidates[0].2, EvictReason::OverBudget);
        assert_eq!(reg.len(), 2, "candidates pass removes nothing");

        // An idle timeout marks both, and the budget pass does not then
        // double-count them.
        std::thread::sleep(Duration::from_millis(5));
        let policy = EvictionPolicy {
            session_budget: Some(per_session + per_session / 2),
            idle_timeout: Some(Duration::from_millis(1)),
        };
        let candidates = reg.eviction_candidates(&policy);
        assert_eq!(candidates.len(), 2);
        assert!(candidates
            .iter()
            .all(|(_, _, r)| *r == EvictReason::IdleTimeout));
    }
}
