//! Generation-stamped response cache for read-only GQL replies.
//!
//! Replies to cacheable read verbs are stored one slot per
//! `(scope, normalized command line)`, and each slot remembers the session
//! generation its reply was computed under. Because a session's
//! generation bumps on every write-lock acquisition
//! ([`crate::registry::SessionEntry::generation`]), a cached reply is
//! *structurally* invalidated by any write: the next lookup carries the
//! new generation, finds a slot stamped with an older one, and misses. No
//! invalidation traffic, no session lock on the hit path — a hit is a map
//! probe under the cache's own mutex. The recomputed reply then *replaces*
//! the stale slot, and the first insert an entry scope sees at a newer
//! generation drops every older slot of that scope, since none of them can
//! hit again. So a write never strands dead replies, even for commands no
//! one repeats (a pipeline naming fresh tables every iteration): the cache
//! holds at most one slot per command per scope, and the byte budget holds
//! live text.
//!
//! The scope component names *whose* replies a slot holds. The default
//! scope, [`CacheScope::Entry`], carries the session's entry id (unique
//! per [`crate::registry::SessionEntry`], never reused), which guarantees
//! a session that is closed, evicted, or replaced under the same name can
//! never serve another incarnation's replies;
//! [`ResponseCache::purge_entry`] additionally reclaims their budget
//! eagerly. [`CacheScope::Corpus`] instead carries a corpus fingerprint,
//! letting *pristine* twin sessions (generation 0, identical corpus —
//! e.g. two `open demo <seed>` sessions with the same seed) share each
//! other's pure-read replies. Corpus-scoped slots are only ever written
//! and read at generation 0, so a session that diverges (any write bumps
//! its generation) silently stops matching them and falls back to its
//! private entry scope.
//!
//! Capacity is a byte budget over command + reply text. Insertions over
//! budget evict least-recently-hit slots first — but eviction is guarded by
//! a **scan-resistant admission filter** ([`FrequencySketch`], a
//! TinyLFU-style count-min sketch of access frequencies): an insertion
//! that would evict a slot whose command is accessed *more often* than
//! the newcomer is rejected instead. A burst of one-off commands (a
//! client iterating `library 0`, `library 1`, … once each) therefore
//! churns only against itself; the hot replies it would have flushed
//! under plain LRU keep hitting. Frequencies are keyed on
//! `(scope, command)` like the slots themselves, so a command's
//! popularity survives write invalidations and the recomputed reply
//! re-admits immediately.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use gea_sage::codec::{ByteSink, Fnv1a};

/// Fixed per-slot charge on top of the text payload (key struct, map
/// node, and allocation overhead).
const SLOT_OVERHEAD: usize = 96;

/// Namespace of a cache slot: who may hit it.
#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
pub enum CacheScope {
    /// Private to one session incarnation, keyed by its registry entry id.
    Entry(u64),
    /// Shared across pristine sessions with an identical corpus, keyed by
    /// the corpus fingerprint. Only used at generation 0.
    Corpus(u64),
}

#[derive(PartialEq, Eq, Hash, Clone)]
struct Key {
    scope: CacheScope,
    command: String,
}

struct Slot {
    reply: String,
    /// The session generation the reply was computed under; a lookup hits
    /// only at exactly this generation.
    generation: u64,
    cost: usize,
    /// Logical LRU timestamp: the cache clock at the last hit/insert.
    /// Unique per slot (the clock ticks on every hit and insert), so it
    /// doubles as the slot's position in the `order` index.
    stamp: u64,
}

/// Smallest counters-per-row width the sketch will use (the historical
/// fixed size: 4 KiB of counters).
const SKETCH_MIN_WIDTH: usize = 1024;
/// Largest width: each row's index draws 16 bits from the 64-bit hash,
/// so a row can address at most 2^16 counters.
const SKETCH_MAX_WIDTH: usize = 65_536;
/// Independent counter rows; an item's estimate is the minimum over its
/// row counters, so hash collisions only ever *overstate* a frequency.
const SKETCH_ROWS: usize = 4;
/// Assumed bytes per cached slot when sizing the sketch from the cache
/// budget: the sketch should track about as many distinct keys as the
/// cache can hold slots, and command + reply text for typical GQL replies
/// lands around a KiB.
const SKETCH_BYTES_PER_SLOT: usize = 1024;

/// A TinyLFU-style count-min sketch over `(scope, command)` access
/// frequencies: 4 rows of `u8` counters, saturating increments, periodic
/// halving. No allocations after construction, no external dependencies.
///
/// The width scales with the cache budget (`--cache-bytes`): a fixed
/// 1024-counter row serves a few-MiB cache fine, but a large budget holds
/// many more distinct keys than the row can separate, and the admission
/// filter degrades into coin flips between colliding hot sets. The aging
/// sample limit scales with the width so bigger sketches keep the same
/// sliding-window behavior, and a counter saturating at `u8::MAX`
/// triggers an immediate aging pass — a pinned counter can no longer
/// rank two hot keys, halving restores the resolution.
struct FrequencySketch {
    counters: Vec<u8>,
    /// Counters per row; a power of two in
    /// [`SKETCH_MIN_WIDTH`, `SKETCH_MAX_WIDTH`].
    width: usize,
    samples: u32,
    /// Recorded accesses between aging passes (10× width).
    sample_limit: u32,
}

impl FrequencySketch {
    /// A sketch sized for a cache of `budget` bytes: one counter per
    /// expected slot, rounded up to a power of two and clamped.
    fn for_budget(budget: usize) -> FrequencySketch {
        let width = (budget / SKETCH_BYTES_PER_SLOT)
            .next_power_of_two()
            .clamp(SKETCH_MIN_WIDTH, SKETCH_MAX_WIDTH);
        FrequencySketch {
            counters: vec![0; SKETCH_ROWS * width],
            width,
            samples: 0,
            sample_limit: 10 * width as u32,
        }
    }

    fn index(&self, row: usize, hash: u64) -> usize {
        row * self.width + ((hash >> (16 * row)) as usize & (self.width - 1))
    }

    /// Count one access.
    fn record(&mut self, hash: u64) {
        self.samples += 1;
        if self.samples >= self.sample_limit {
            self.age();
        }
        // A saturated counter has stopped ranking: two keys pinned at the
        // ceiling compare equal no matter how their popularity differs.
        // Halve everything to restore resolution before counting.
        if (0..SKETCH_ROWS).any(|row| self.counters[self.index(row, hash)] == u8::MAX) {
            self.age();
        }
        for row in 0..SKETCH_ROWS {
            let i = self.index(row, hash);
            self.counters[i] = self.counters[i].saturating_add(1);
        }
    }

    /// Estimated access count (an upper bound; exact absent collisions).
    fn estimate(&self, hash: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.counters[self.index(row, hash)])
            .min()
            .unwrap_or(0)
    }

    fn age(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
        self.samples /= 2;
    }
}

/// FNV-1a over the scope and command — the slot key, see the module doc.
fn freq_hash(scope: CacheScope, command: &str) -> u64 {
    let (tag, id) = match scope {
        CacheScope::Entry(id) => (1u8, id),
        CacheScope::Corpus(id) => (2u8, id),
    };
    let mut hash = Fnv1a::default();
    hash.put(&[tag]);
    hash.put(&id.to_le_bytes());
    hash.put(command.as_bytes());
    hash.0
}

struct Inner {
    map: HashMap<Key, Slot>,
    /// LRU index: stamp -> key, mirroring `map`. The first entry is the
    /// least recently hit slot, so one eviction is an O(log n) pop
    /// instead of a full scan.
    order: BTreeMap<u64, Key>,
    bytes: usize,
    clock: u64,
    /// Access-frequency sketch feeding the scan-resistant admission
    /// decision on over-budget inserts.
    sketch: FrequencySketch,
    /// The newest generation inserted per entry scope, by entry id.
    newest: HashMap<u64, u64>,
}

impl Inner {
    fn new(budget: usize) -> Inner {
        Inner {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            clock: 0,
            sketch: FrequencySketch::for_budget(budget),
            newest: HashMap::new(),
        }
    }

    /// Drop every slot `stale` picks, returning how many went.
    fn drop_slots(&mut self, stale: impl Fn(&Key, &Slot) -> bool) -> usize {
        let victims: Vec<(u64, Key)> = self
            .map
            .iter()
            .filter(|(key, slot)| stale(key, slot))
            .map(|(key, slot)| (slot.stamp, key.clone()))
            .collect();
        for (stamp, key) in &victims {
            if let Some(slot) = self.map.remove(key) {
                self.bytes -= slot.cost;
            }
            self.order.remove(stamp);
        }
        victims.len()
    }
}

/// The outcome of a cache insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The reply was cached; `evicted` older slots made room for it.
    Stored {
        /// How many least-recently-hit slots were evicted to fit it.
        evicted: u64,
    },
    /// The reply was too large relative to the budget, or would have
    /// evicted a more popular slot, and was not cached (counted in the
    /// `cache_rejected` stat by the caller).
    Rejected,
    /// A reply computed under a *newer* generation is already resident for
    /// this command (the caller is a slow reader that lost a race with a
    /// write and a faster reader); nothing was stored and nothing should
    /// be counted.
    Superseded,
    /// The cache is disabled (zero budget); nothing was stored and nothing
    /// should be counted.
    Disabled,
}

/// Admission control: a single reply may use at most this fraction of the
/// budget (1/`ADMISSION_FRACTION`). Without it, one huge reply churns the
/// entire LRU on insert — evicting every hot slot to store bytes that will
/// likely age out before they are hit again.
const ADMISSION_FRACTION: usize = 4;

/// A byte-budgeted LRU cache of `OK` reply payloads.
pub struct ResponseCache {
    budget: usize,
    inner: Mutex<Inner>,
}

impl ResponseCache {
    /// Create a cache holding at most `budget` bytes of command + reply
    /// text. A budget of 0 disables the cache entirely (every lookup
    /// misses, every insert is a no-op).
    pub fn new(budget: usize) -> ResponseCache {
        ResponseCache {
            budget,
            inner: Mutex::new(Inner::new(budget)),
        }
    }

    /// Whether a nonzero budget was configured.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Look up the reply cached for `command` under `scope`, which hits
    /// only if it was computed at exactly `generation`. A hit refreshes the
    /// slot's LRU stamp; a miss leaves a slot of another generation alone.
    /// Every lookup — hit or miss — records an access in the frequency
    /// sketch, which is what lets a popular command out-rank a one-off scan
    /// at admission.
    pub fn get(&self, scope: CacheScope, generation: u64, command: &str) -> Option<String> {
        if self.budget == 0 {
            return None;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.sketch.record(freq_hash(scope, command));
        inner.clock += 1;
        let clock = inner.clock;
        let key = Key {
            scope,
            command: command.to_string(),
        };
        let slot = inner
            .map
            .get_mut(&key)
            .filter(|slot| slot.generation == generation)?;
        let stale = slot.stamp;
        slot.stamp = clock;
        let reply = slot.reply.clone();
        inner.order.remove(&stale);
        inner.order.insert(clock, key);
        Some(reply)
    }

    /// Store a reply computed under `generation`, replacing the command's
    /// resident slot unless that one is *newer*, and evicting
    /// least-recently-hit slots until it fits — unless a would-be victim's
    /// command is accessed more often than the newcomer, in which case the
    /// newcomer is rejected instead (scan resistance; see the module doc).
    /// Replies costing more than 1/4 of the budget are rejected at
    /// admission instead of churning the whole LRU to store them.
    pub fn insert(
        &self,
        scope: CacheScope,
        generation: u64,
        command: String,
        reply: String,
    ) -> Admission {
        if self.budget == 0 {
            return Admission::Disabled;
        }
        let cost = SLOT_OVERHEAD + command.len() + reply.len();
        if cost.saturating_mul(ADMISSION_FRACTION) > self.budget {
            return Admission::Rejected;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let hash = freq_hash(scope, &command);
        inner.sketch.record(hash);
        let newcomer = inner.sketch.estimate(hash);
        // The first reply of a newer generation strands the scope's older
        // slots, which no lookup can hit again: reclaim them, once per
        // generation. They were dead, not evicted, so they go uncounted.
        if let CacheScope::Entry(entry) = scope {
            let newest = inner.newest.entry(entry).or_insert(generation);
            if generation > *newest {
                *newest = generation;
                inner.drop_slots(|k, slot| k.scope == scope && slot.generation < generation);
            }
        }
        let key = Key { scope, command };
        // A slow reader must not overwrite a fresher reply.
        if inner
            .map
            .get(&key)
            .is_some_and(|resident| resident.generation > generation)
        {
            return Admission::Superseded;
        }
        // Credit the slot being replaced *before* the eviction pass, so a
        // refresh near budget does not evict unrelated slots.
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.cost;
            inner.order.remove(&old.stamp);
        }
        // Choose victims least-recently-hit first, but admit only if the
        // newcomer's access frequency matches or beats every victim's:
        // one slot whose command out-ranks the newcomer vetoes the whole
        // insertion, and nothing is evicted. Ties go to the newcomer, so
        // equally cold traffic still behaves like plain LRU.
        let mut victims: Vec<(u64, Key)> = Vec::new();
        let mut freed = 0usize;
        for (&stamp, victim) in inner.order.iter() {
            if inner.bytes - freed + cost <= self.budget {
                break;
            }
            if inner
                .sketch
                .estimate(freq_hash(victim.scope, &victim.command))
                > newcomer
            {
                return Admission::Rejected;
            }
            freed += inner.map[victim].cost;
            victims.push((stamp, victim.clone()));
        }
        let mut evicted = 0;
        for (stamp, victim) in victims {
            if let Some(slot) = inner.map.remove(&victim) {
                inner.bytes -= slot.cost;
                evicted += 1;
            }
            inner.order.remove(&stamp);
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.order.insert(stamp, key.clone());
        inner.map.insert(
            key,
            Slot {
                reply,
                generation,
                cost,
                stamp,
            },
        );
        inner.bytes += cost;
        Admission::Stored { evicted }
    }

    /// Drop every *entry-scoped* slot belonging to session `entry`
    /// (closed, evicted, or replaced), returning how many were dropped.
    /// Corpus-scoped slots are deliberately left alone: they belong to
    /// the corpus, not to any one session, and remain valid for future
    /// pristine twins.
    pub fn purge_entry(&self, entry: u64) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.newest.remove(&entry);
        inner.drop_slots(|k, _| k.scope == CacheScope::Entry(entry))
    }

    /// Bytes currently held (command + reply text + per-slot overhead).
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache gauges appended to the `stats` reply.
    pub fn render_gauges(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        format!(
            "cache_entries {}\ncache_bytes {}\ncache_budget_bytes {}\n",
            inner.map.len(),
            inner.bytes,
            self.budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64) -> CacheScope {
        CacheScope::Entry(id)
    }

    #[test]
    fn hit_miss_and_generation_invalidation() {
        let cache = ResponseCache::new(4096);
        assert!(cache.is_enabled());
        assert_eq!(cache.get(e(1), 0, "lineage"), None);
        cache.insert(e(1), 0, "lineage".into(), "node 0".into());
        assert_eq!(cache.get(e(1), 0, "lineage"), Some("node 0".to_string()));
        // A bumped generation is a structural miss, and the miss leaves
        // the slot alone: it still answers a reader at its own generation.
        assert_eq!(cache.get(e(1), 1, "lineage"), None);
        assert_eq!(cache.get(e(1), 0, "lineage"), Some("node 0".to_string()));
        // Another session's entry id never collides.
        assert_eq!(cache.get(e(2), 0, "lineage"), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn lru_eviction_under_a_tiny_budget() {
        // Budget fits four admission-sized slots exactly; a fifth insert
        // must evict the least recently used.
        let slot = SLOT_OVERHEAD + 1 + 5;
        let cache = ResponseCache::new(4 * slot);
        for key in ["a", "b", "c", "d"] {
            assert_eq!(
                cache.insert(e(1), 0, key.into(), "vvvvv".into()),
                Admission::Stored { evicted: 0 }
            );
        }
        // Touch "a" so "b" is the least recently used, then overflow.
        assert!(cache.get(e(1), 0, "a").is_some());
        assert_eq!(
            cache.insert(e(1), 0, "e".into(), "vvvvv".into()),
            Admission::Stored { evicted: 1 }
        );
        assert!(
            cache.get(e(1), 0, "a").is_some(),
            "recently hit slot survives"
        );
        assert_eq!(cache.get(e(1), 0, "b"), None, "LRU slot evicted");
        assert!(cache.get(e(1), 0, "e").is_some());
    }

    #[test]
    fn oversized_replies_are_rejected_at_admission() {
        // A reply over 1/4 of the budget never enters the cache — and
        // never evicts what is already there.
        let cache = ResponseCache::new(4096);
        assert_eq!(
            cache.insert(e(1), 0, "small".into(), "v".into()),
            Admission::Stored { evicted: 0 }
        );
        assert_eq!(
            cache.insert(e(1), 0, "big".into(), "x".repeat(2000)),
            Admission::Rejected
        );
        assert_eq!(cache.len(), 1, "rejected reply must not be stored");
        assert!(
            cache.get(e(1), 0, "small").is_some(),
            "rejected reply must not evict residents"
        );
        // Exactly at the quarter boundary is still admitted.
        let fitting = 4096 / 4 - SLOT_OVERHEAD - 3;
        assert_eq!(
            cache.insert(e(1), 0, "fit".into(), "z".repeat(fitting)),
            Admission::Stored { evicted: 0 }
        );
    }

    #[test]
    fn oversize_and_disabled_are_no_ops() {
        let cache = ResponseCache::new(64);
        assert_eq!(
            cache.insert(e(1), 0, "big".into(), "x".repeat(1000)),
            Admission::Rejected
        );
        assert!(cache.is_empty());

        let off = ResponseCache::new(0);
        assert!(!off.is_enabled());
        assert_eq!(
            off.insert(e(1), 0, "a".into(), "b".into()),
            Admission::Disabled,
            "a disabled cache must not count rejections"
        );
        assert_eq!(off.get(e(1), 0, "a"), None);
        assert!(off.is_empty());
    }

    #[test]
    fn purge_drops_only_the_named_entry() {
        let cache = ResponseCache::new(4096);
        // Two generations of entry 1 resident at once: a slow reader's
        // older reply lands after a newer one.
        cache.insert(e(1), 3, "b".into(), "2".into());
        cache.insert(e(1), 0, "a".into(), "1".into());
        cache.insert(e(2), 0, "a".into(), "3".into());
        assert_eq!(cache.purge_entry(1), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(e(2), 0, "a"), Some("3".to_string()));
        assert_eq!(cache.purge_entry(99), 0);
    }

    #[test]
    fn same_key_refresh_near_budget_does_not_evict_neighbors() {
        // Four admission-sized slots fill the budget exactly.
        let payload = "p".repeat(100);
        let slot = SLOT_OVERHEAD + 1 + payload.len();
        let cache = ResponseCache::new(4 * slot);
        for key in ["a", "b", "c", "d"] {
            assert_eq!(
                cache.insert(e(1), 0, key.into(), payload.clone()),
                Admission::Stored { evicted: 0 }
            );
        }
        // Re-inserting "d" replaces its own slot; crediting it first means
        // nothing else needs to go.
        assert_eq!(
            cache.insert(e(1), 0, "d".into(), payload),
            Admission::Stored { evicted: 0 }
        );
        assert!(cache.get(e(1), 0, "a").is_some(), "unrelated slot evicted");
        assert!(cache.get(e(1), 0, "d").is_some());
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = ResponseCache::new(4096);
        cache.insert(e(1), 0, "a".into(), "short".into());
        let before = cache.bytes();
        cache.insert(e(1), 0, "a".into(), "short".into());
        assert_eq!(cache.bytes(), before, "double insert double-counted");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn corpus_scope_is_shared_and_survives_entry_purge() {
        let cache = ResponseCache::new(4096);
        let twin = CacheScope::Corpus(0xfeed);
        // A corpus-scoped slot stored by one session hits for any twin —
        // there is no entry id in the key at all.
        cache.insert(twin, 0, "lineage".into(), "node 0".into());
        assert_eq!(cache.get(twin, 0, "lineage"), Some("node 0".to_string()));
        // It never collides with entry scopes, even on equal raw ids.
        assert_eq!(cache.get(CacheScope::Entry(0xfeed), 0, "lineage"), None);
        // Purging a session's entry slots leaves corpus slots alone.
        cache.insert(e(7), 0, "gap g".into(), "x".into());
        assert_eq!(cache.purge_entry(7), 1);
        assert_eq!(cache.get(twin, 0, "lineage"), Some("node 0".to_string()));
    }

    #[test]
    fn hot_slots_survive_a_cold_scan() {
        // Mirrors the server's miss path per command: a lookup (miss)
        // followed by an insert, so every once-seen scan key carries a
        // frequency of 2 while the primed-and-hit resident carries 4.
        let payload = "v".repeat(20);
        let slot = SLOT_OVERHEAD + 3 + payload.len();
        let cache = ResponseCache::new(4 * slot);

        assert_eq!(cache.get(e(1), 0, "hot"), None);
        cache.insert(e(1), 0, "hot".into(), payload.clone());
        for _ in 0..2 {
            assert!(cache.get(e(1), 0, "hot").is_some());
        }

        // One-pass cold scan, 3x the budget: the first keys fill the free
        // space, the rest would have to evict the hot slot — and lose the
        // frequency contest against it instead.
        let mut rejected = 0;
        for i in 0..12 {
            let key = format!("s{i:02}");
            assert_eq!(cache.get(e(1), 0, &key), None);
            if cache.insert(e(1), 0, key, payload.clone()) == Admission::Rejected {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "over-budget scan was fully admitted");
        assert!(
            cache.get(e(1), 0, "hot").is_some(),
            "hot slot was thrashed by a one-pass scan"
        );
    }

    #[test]
    fn popularity_survives_generation_bumps() {
        // Frequencies are keyed like the slots, without the generation, so
        // a write invalidation does not reset a command's standing: the
        // recomputed reply replaces its own stale slot and resists a scan
        // from its first post-write insert.
        let payload = "v".repeat(20);
        let slot = SLOT_OVERHEAD + 3 + payload.len();
        let cache = ResponseCache::new(4 * slot);

        assert_eq!(cache.get(e(1), 0, "hot"), None);
        cache.insert(e(1), 0, "hot".into(), payload.clone());
        for _ in 0..2 {
            assert!(cache.get(e(1), 0, "hot").is_some());
        }
        // Fill the remaining budget with once-seen keys.
        for key in ["c00", "c01", "c02"] {
            assert_eq!(cache.get(e(1), 0, key), None);
            assert_eq!(
                cache.insert(e(1), 0, key.into(), payload.clone()),
                Admission::Stored { evicted: 0 }
            );
        }

        // A write bumps the generation; the re-read misses structurally
        // and the reply recomputed under generation 1 takes over the gen-0
        // slot in place, evicting nothing; the dead gen-0 neighbours are
        // reclaimed.
        assert_eq!(cache.get(e(1), 1, "hot"), None);
        assert_eq!(
            cache.insert(e(1), 1, "hot".into(), payload.clone()),
            Admission::Stored { evicted: 0 }
        );
        assert!(cache.get(e(1), 1, "hot").is_some());
        assert_eq!(cache.len(), 1);

        // And it still out-ranks a fresh cold scan.
        let mut rejected = 0;
        for i in 0..8 {
            let key = format!("d{i:02}");
            assert_eq!(cache.get(e(1), 1, &key), None);
            if cache.insert(e(1), 1, key, payload.clone()) == Admission::Rejected {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "post-bump scan was fully admitted");
        assert!(
            cache.get(e(1), 1, "hot").is_some(),
            "generation bump reset the command's scan resistance"
        );
    }

    #[test]
    fn a_write_strands_no_slots() {
        // Ten writes, each followed by a re-read of the same three lines
        // (the `mixed_rw` shape): the cache holds one slot per command, not
        // one per command per generation.
        let cache = ResponseCache::new(1 << 20);
        let lines = ["lineage", "fascicles", "show gap g 5"];
        for generation in 0..10 {
            for line in lines {
                assert_eq!(cache.get(e(1), generation, line), None);
                assert_eq!(
                    cache.insert(e(1), generation, line.into(), format!("r{generation}")),
                    Admission::Stored { evicted: 0 }
                );
                assert_eq!(
                    cache.get(e(1), generation, line),
                    Some(format!("r{generation}"))
                );
            }
            assert_eq!(cache.len(), lines.len());
        }
        let one = SLOT_OVERHEAD + "r9".len();
        let text: usize = lines.iter().map(|l| l.len()).sum();
        assert_eq!(cache.bytes(), lines.len() * one + text);
    }

    #[test]
    fn a_newer_generation_reclaims_fresh_commands_of_older_ones() {
        // Ten writes, each followed by a read no later iteration repeats
        // (the pipeline shape: `show gap g00000_20 20`, then `g00001_20`,
        // …): the older slots can never hit again, so each new generation
        // reclaims them, uncounted as evictions.
        let cache = ResponseCache::new(1 << 20);
        for generation in 0..10 {
            let line = format!("show gap g{generation} 20");
            assert_eq!(
                cache.insert(e(1), generation, line, "rows".into()),
                Admission::Stored { evicted: 0 }
            );
            assert_eq!(cache.len(), 1);
        }
        assert_eq!(cache.bytes(), SLOT_OVERHEAD + "show gap g9 20rows".len());
        // Other scopes keep their slots.
        cache.insert(e(2), 0, "lineage".into(), "n".into());
        cache.insert(CacheScope::Corpus(7), 0, "tissues".into(), "t".into());
        cache.insert(e(1), 10, "lineage".into(), "n".into());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(e(2), 0, "lineage"), Some("n".to_string()));
    }

    #[test]
    fn an_older_generation_never_displaces_a_newer_slot() {
        // A reader that computed its reply before a write, but inserts it
        // after a faster reader cached the post-write reply, is refused.
        let cache = ResponseCache::new(4096);
        cache.insert(e(1), 6, "lineage".into(), "after".into());
        let before = cache.bytes();
        assert_eq!(
            cache.insert(e(1), 5, "lineage".into(), "before the write".into()),
            Admission::Superseded
        );
        assert_eq!(cache.get(e(1), 6, "lineage"), Some("after".to_string()));
        assert_eq!(cache.get(e(1), 5, "lineage"), None);
        assert_eq!((cache.len(), cache.bytes()), (1, before));
    }

    #[test]
    fn gauges_render() {
        let cache = ResponseCache::new(512);
        cache.insert(e(1), 0, "a".into(), "b".into());
        let g = cache.render_gauges();
        assert!(g.contains("cache_entries 1"), "{g}");
        assert!(g.contains("cache_budget_bytes 512"), "{g}");
    }

    #[test]
    fn sketch_width_scales_with_budget() {
        // Small budgets keep the historical 1024-counter rows; the width
        // then tracks budget / 1 KiB as a power of two, capped by the 16
        // index bits available per row.
        assert_eq!(FrequencySketch::for_budget(0).width, 1024);
        assert_eq!(FrequencySketch::for_budget(512 * 1024).width, 1024);
        assert_eq!(FrequencySketch::for_budget(8 * 1024 * 1024).width, 8192);
        assert_eq!(FrequencySketch::for_budget(3 * 1024 * 1024).width, 4096);
        assert_eq!(FrequencySketch::for_budget(1 << 30).width, 65_536);
        for budget in [0, 4096, 1 << 20, 1 << 26, 1 << 30] {
            let s = FrequencySketch::for_budget(budget);
            assert!(s.width.is_power_of_two());
            assert_eq!(s.sample_limit, 10 * s.width as u32);
            assert_eq!(s.counters.len(), SKETCH_ROWS * s.width);
        }
    }

    #[test]
    fn large_budget_sketch_keeps_hot_sets_separable() {
        // A 64 MiB cache sees far more distinct keys than a 1024-counter
        // row can separate. With the width scaled to the budget, a large
        // one-off scan must not inflate cold keys into the hot keys'
        // frequency range: every hot key must still out-rank every scan
        // key at admission time.
        let mut sketch = FrequencySketch::for_budget(64 * 1024 * 1024);
        assert_eq!(sketch.width, 65_536);
        let hot: Vec<u64> = (0..100)
            .map(|i| freq_hash(CacheScope::Entry(1), &format!("hot{i}")))
            .collect();
        let scan: Vec<u64> = (0..5000)
            .map(|i| freq_hash(CacheScope::Entry(1), &format!("scan{i}")))
            .collect();
        for h in &hot {
            for _ in 0..10 {
                sketch.record(*h);
            }
        }
        for s in &scan {
            sketch.record(*s);
        }
        let min_hot = hot.iter().map(|h| sketch.estimate(*h)).min().unwrap();
        let max_scan = scan.iter().map(|s| sketch.estimate(*s)).max().unwrap();
        assert!(
            min_hot > max_scan,
            "hot set no longer separable: min hot estimate {min_hot} <= max scan estimate {max_scan}"
        );
    }

    #[test]
    fn saturated_counter_triggers_aging() {
        let mut sketch = FrequencySketch::for_budget(0);
        let h = freq_hash(CacheScope::Entry(1), "pinned");
        // Drive one key's counters to the u8 ceiling; the next record on
        // that key must halve the sketch instead of comparing two pinned
        // keys as equals forever.
        for _ in 0..(u8::MAX as usize) {
            sketch.record(h);
        }
        let before = sketch.estimate(h);
        sketch.record(h);
        let after = sketch.estimate(h);
        assert!(
            after < before,
            "no aging pass on saturation: {before} -> {after}"
        );
        assert!(
            after >= u8::MAX / 2,
            "aging should halve, not reset to zero"
        );
    }
}
