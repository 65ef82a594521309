//! Server metrics: request counts, per-command latency histograms, and
//! connection gauges, exposed by the `stats` command.
//!
//! Counters are lock-free atomics on the hot path; the per-command table
//! is a small mutexed map updated once per request. Latencies go into
//! log2-microsecond buckets (bucket *i* covers `[2^i, 2^(i+1))` µs), which
//! spans 1 µs to over a minute in [`N_BUCKETS`] buckets and gives
//! percentile estimates without storing samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log2 latency buckets (last bucket absorbs the overflow).
pub const N_BUCKETS: usize = 27;

/// Latency statistics for one command verb.
#[derive(Debug, Clone)]
pub struct CmdStat {
    /// Requests observed.
    pub count: u64,
    /// Requests that returned `ERR`.
    pub errors: u64,
    /// Sum of latencies in microseconds.
    pub total_us: u64,
    /// Largest latency in microseconds.
    pub max_us: u64,
    /// log2-µs histogram.
    pub buckets: [u64; N_BUCKETS],
}

impl CmdStat {
    fn new() -> CmdStat {
        CmdStat {
            count: 0,
            errors: 0,
            total_us: 0,
            max_us: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    fn record(&mut self, us: u64, ok: bool) {
        self.count += 1;
        if !ok {
            self.errors += 1;
        }
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        let bucket = (63 - (us.max(1)).leading_zeros() as usize).min(N_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Upper edge (µs) of the bucket holding quantile `q` — a conservative
    /// percentile estimate from the histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max_us
    }
}

/// Wall/busy accounting for one parallel operator, aggregated per op.
#[derive(Debug, Clone, Default)]
pub struct ExecOpStat {
    /// Parallel executions observed.
    pub count: u64,
    /// Summed shard count across executions.
    pub shards: u64,
    /// Summed wall-clock time of the parallel sections, microseconds.
    pub wall_us: u64,
    /// Summed per-worker busy (CPU-proxy) time, microseconds.
    pub cpu_us: u64,
}

/// The plain monotonic counters of the `stats` reply, declared once:
/// [`Counter::TABLE`] pairs each variant with its `stats` key, in reply
/// order, and is all that [`Metrics::render`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Connections accepted and handed to a worker.
    ConnectionsTotal,
    /// Connections turned away because the worker queue was full.
    ConnectionsRejected,
    /// Requests observed.
    RequestsTotal,
    /// Requests that returned `ERR`.
    ErrorsTotal,
    /// Cacheable reads served from the response cache.
    CacheHits,
    /// Cacheable reads that were not in the response cache and executed.
    CacheMisses,
    /// Cached replies evicted to make room for an insertion.
    CacheEvictions,
    /// Replies refused at cache admission for being oversized.
    CacheRejected,
    /// Commands rejected by the `--max-cost` budget gate (`EBUDGET`).
    BudgetRejected,
    /// Commands `gea-opt` rewrote onto a fast-path step.
    OptRewrites,
    /// Cacheable commands whose canonical cache key differed from their
    /// literal spelling — algebraically-equal commands unified onto one slot.
    OptKeyUnified,
    /// Sessions evicted by the registry's policy.
    SessionsEvicted,
    /// Sessions persisted to the spill directory before eviction.
    SessionsSpilled,
    /// Spilled sessions transparently restored on their next use.
    SessionsRestored,
    /// Spill or restore attempts that failed (I/O error or corrupt snapshot).
    SpillErrors,
    /// Spilled sessions whose restore was kicked onto a background thread.
    SessionsPrefetched,
    /// Sharded operator executions.
    ExecParallelOps,
    /// Summed fan-out of those executions.
    ExecShards,
}

impl Counter {
    /// Every counter with its `stats` key, in reply (and discriminant) order.
    pub const TABLE: [(Counter, &'static str); 18] = [
        (Counter::ConnectionsTotal, "connections_total"),
        (Counter::ConnectionsRejected, "connections_rejected"),
        (Counter::RequestsTotal, "requests_total"),
        (Counter::ErrorsTotal, "errors_total"),
        (Counter::CacheHits, "cache_hits"),
        (Counter::CacheMisses, "cache_misses"),
        (Counter::CacheEvictions, "cache_evictions"),
        (Counter::CacheRejected, "cache_rejected"),
        (Counter::BudgetRejected, "budget_rejected"),
        (Counter::OptRewrites, "opt_rewrites"),
        (Counter::OptKeyUnified, "opt_key_unified"),
        (Counter::SessionsEvicted, "sessions_evicted"),
        (Counter::SessionsSpilled, "sessions_spilled"),
        (Counter::SessionsRestored, "sessions_restored"),
        (Counter::SpillErrors, "spill_errors"),
        (Counter::SessionsPrefetched, "sessions_prefetched"),
        (Counter::ExecParallelOps, "exec_parallel_ops"),
        (Counter::ExecShards, "exec_shards"),
    ];
}

/// The server's shared metrics sink.
pub struct Metrics {
    started: Instant,
    connections_active: AtomicU64,
    counters: [AtomicU64; Counter::TABLE.len()],
    per_cmd: Mutex<BTreeMap<&'static str, CmdStat>>,
    per_exec: Mutex<BTreeMap<&'static str, ExecOpStat>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Create a zeroed sink; uptime starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            connections_active: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            per_cmd: Mutex::new(BTreeMap::new()),
            per_exec: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// A counter's value so far.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A connection was accepted and handed to a worker.
    pub fn connection_opened(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
        self.add(Counter::ConnectionsTotal, 1);
    }

    /// A connection finished.
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one request's verb, latency, and outcome.
    pub fn record(&self, verb: &'static str, elapsed: Duration, ok: bool) {
        self.add(Counter::RequestsTotal, 1);
        if !ok {
            self.add(Counter::ErrorsTotal, 1);
        }
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let mut map = self.per_cmd.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(verb).or_insert_with(CmdStat::new).record(us, ok);
    }

    /// A sharded operator ran: `op` names it (`mine`, `populate`,
    /// `aggregate`), `shards` is the fan-out, and `wall_us`/`cpu_us` are the
    /// parallel section's wall-clock and summed per-worker busy time.
    pub fn exec_op(&self, op: &'static str, shards: u64, wall_us: u64, cpu_us: u64) {
        self.add(Counter::ExecParallelOps, 1);
        self.add(Counter::ExecShards, shards);
        let mut map = self.per_exec.lock().unwrap_or_else(|e| e.into_inner());
        let stat = map.entry(op).or_default();
        stat.count += 1;
        stat.shards += shards;
        stat.wall_us += wall_us;
        stat.cpu_us += cpu_us;
    }

    /// Render the `stats` reply: gauges first, then one line per verb with
    /// count, errors, mean/p50/p95/max latency, and the raw histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "uptime_seconds {}", self.started.elapsed().as_secs());
        let _ = writeln!(
            out,
            "connections_active {}",
            self.connections_active.load(Ordering::Relaxed)
        );
        for (counter, key) in Counter::TABLE {
            let _ = writeln!(out, "{key} {}", self.get(counter));
        }
        {
            let execs = self.per_exec.lock().unwrap_or_else(|e| e.into_inner());
            for (op, stat) in execs.iter() {
                let _ = writeln!(
                    out,
                    "exec {op} count {} shards {} wall_us {} cpu_us {}",
                    stat.count, stat.shards, stat.wall_us, stat.cpu_us
                );
            }
        }
        let map = self.per_cmd.lock().unwrap_or_else(|e| e.into_inner());
        for (verb, stat) in map.iter() {
            let mean = stat.total_us.checked_div(stat.count).unwrap_or(0);
            let last = stat
                .buckets
                .iter()
                .rposition(|&b| b > 0)
                .map_or(0, |i| i + 1);
            let hist: Vec<String> = stat.buckets[..last].iter().map(|b| b.to_string()).collect();
            let _ = writeln!(
                out,
                "cmd {verb} count {} errors {} mean_us {mean} p50_us {} p95_us {} max_us {} hist_log2us [{}]",
                stat.count,
                stat.errors,
                stat.quantile_us(0.50),
                stat.quantile_us(0.95),
                stat.max_us,
                hist.join(" ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_histograms() {
        let m = Metrics::new();
        m.connection_opened();
        m.record("gap", Duration::from_micros(3), true);
        m.record("gap", Duration::from_micros(900), true);
        m.record("gap", Duration::from_micros(70), false);
        m.record("mine", Duration::from_millis(12), true);
        m.connection_closed();

        assert_eq!(m.get(Counter::RequestsTotal), 4);
        let text = m.render();
        assert!(text.contains("requests_total 4"), "{text}");
        assert!(text.contains("errors_total 1"), "{text}");
        assert!(text.contains("connections_active 0"), "{text}");
        assert!(text.contains("connections_total 1"), "{text}");
        assert!(text.contains("cmd gap count 3 errors 1"), "{text}");
        assert!(text.contains("cache_hits 0"), "{text}");
        assert!(text.contains("cmd mine count 1"), "{text}");
        assert!(text.contains("hist_log2us ["), "{text}");

        let map = m.per_cmd.lock().unwrap();
        let gap = &map["gap"];
        // 3 µs -> bucket 1, 70 µs -> bucket 6, 900 µs -> bucket 9.
        assert_eq!(gap.buckets[1], 1);
        assert_eq!(gap.buckets[6], 1);
        assert_eq!(gap.buckets[9], 1);
        assert_eq!(gap.quantile_us(0.5), 1 << 7);
        assert!(gap.quantile_us(1.0) >= 900);
    }

    /// The `stats` reply's key order is a contract (`benchmark/src/layers.rs`
    /// and operators' scripts scrape it by key; diffs read it by line).
    #[test]
    fn stats_keys_keep_their_order() {
        for (i, (counter, _)) in Counter::TABLE.iter().enumerate() {
            assert_eq!(*counter as usize, i, "{counter:?} is out of table order");
        }
        let m = Metrics::new();
        m.exec_op("mine", 2, 50, 90);
        m.record("gap", Duration::from_micros(3), true);
        let text = m.render();
        let keys: Vec<&str> = text.lines().map(|l| l.split(' ').next().unwrap()).collect();
        assert_eq!(
            keys,
            [
                "uptime_seconds",
                "connections_active",
                "connections_total",
                "connections_rejected",
                "requests_total",
                "errors_total",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_rejected",
                "budget_rejected",
                "opt_rewrites",
                "opt_key_unified",
                "sessions_evicted",
                "sessions_spilled",
                "sessions_restored",
                "spill_errors",
                "sessions_prefetched",
                "exec_parallel_ops",
                "exec_shards",
                "exec",
                "cmd",
            ]
        );
    }

    #[test]
    fn quantiles_on_empty_stat_are_zero() {
        let s = CmdStat::new();
        assert_eq!(s.quantile_us(0.5), 0);
    }

    #[test]
    fn cache_and_eviction_counters_render() {
        let m = Metrics::new();
        m.add(Counter::CacheHits, 2);
        m.add(Counter::CacheMisses, 1);
        m.add(Counter::CacheEvictions, 3);
        m.add(Counter::CacheRejected, 1);
        m.add(Counter::SessionsEvicted, 1);
        m.add(Counter::SessionsSpilled, 2);
        m.add(Counter::SessionsRestored, 1);
        m.add(Counter::SpillErrors, 1);
        assert_eq!(m.get(Counter::CacheHits), 2);
        assert_eq!(m.get(Counter::CacheMisses), 1);
        let text = m.render();
        assert!(text.contains("cache_hits 2"), "{text}");
        assert!(text.contains("cache_misses 1"), "{text}");
        assert!(text.contains("cache_evictions 3"), "{text}");
        assert!(text.contains("cache_rejected 1"), "{text}");
        assert!(text.contains("sessions_evicted 1"), "{text}");
        assert!(text.contains("sessions_spilled 2"), "{text}");
        assert!(text.contains("sessions_restored 1"), "{text}");
        assert!(text.contains("spill_errors 1"), "{text}");
    }

    #[test]
    fn optimizer_counters_render() {
        let m = Metrics::new();
        m.add(Counter::OptRewrites, 2);
        m.add(Counter::OptKeyUnified, 1);
        m.add(Counter::BudgetRejected, 1);
        assert_eq!(m.get(Counter::OptRewrites), 2);
        let text = m.render();
        assert!(text.contains("opt_rewrites 2"), "{text}");
        assert!(text.contains("opt_key_unified 1"), "{text}");
        assert!(text.contains("budget_rejected 1"), "{text}");
    }

    #[test]
    fn prefetch_and_exec_counters_render() {
        let m = Metrics::new();
        m.add(Counter::SessionsPrefetched, 1);
        m.exec_op("populate", 4, 120, 400);
        m.exec_op("populate", 4, 80, 300);
        m.exec_op("mine", 2, 50, 90);
        assert_eq!(m.get(Counter::SessionsPrefetched), 1);
        let text = m.render();
        assert!(text.contains("sessions_prefetched 1"), "{text}");
        assert!(text.contains("exec_parallel_ops 3"), "{text}");
        assert!(text.contains("exec_shards 10"), "{text}");
        assert!(
            text.contains("exec populate count 2 shards 8 wall_us 200 cpu_us 700"),
            "{text}"
        );
        assert!(
            text.contains("exec mine count 1 shards 2 wall_us 50 cpu_us 90"),
            "{text}"
        );
    }
}
