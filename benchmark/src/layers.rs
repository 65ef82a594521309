//! The **C** and **S** per-layer metrics: what the clients saw and what
//! the servers' `stats` say about the same window.

use gea_server::EffectTable;

use crate::hist::Hist;
use crate::load::Outcome;
use crate::names::{CLIENT_VERBS, HANDLE_VERBS};
use crate::run::{per, put, Values};
use crate::stats::Stats;

/// Cacheable read verbs, from the one verb-effect table.
fn read_verbs() -> Vec<&'static str> {
    EffectTable::rows()
        .iter()
        .filter(|r| !r.mutates_session && r.pure && r.deterministic)
        .map(|r| r.verb)
        .collect()
}

/// Verbs that are neither reads nor work: excluded from the write side
/// of `wire.residual`.
const CONTROL_VERBS: [&str; 11] = [
    "help",
    "quit",
    "ping",
    "stats",
    "shutdown",
    "gen-corpus",
    "open",
    "use",
    "sessions",
    "close",
    "parse",
];

/// Counters reported as their growth over the window.
const COUNTERS: [(&str, &str); 5] = [
    ("server.errors", "errors_total"),
    ("server.cache.evictions", "cache_evictions"),
    ("server.cache.rejected", "cache_rejected"),
    ("opt.rewrites", "opt_rewrites"),
    ("opt.key_unified", "opt_key_unified"),
];

/// Gauges reported as they stand after the window.
const LEVELS: [(&str, &str); 2] = [
    ("server.cache.entries", "cache_entries"),
    ("server.cache.bytes", "cache_bytes"),
];

fn pooled(stats: &[Stats]) -> Stats {
    let mut sum = Stats::default();
    for s in stats {
        sum.add(s);
    }
    sum
}

/// `before` and `after` hold one scrape per server (the routed workload
/// scrapes each backend directly); `bytes` is the session's size before
/// and after the window.
pub fn layer_metrics(
    all: &Outcome,
    ping: &Hist,
    before: &[Stats],
    after: &[Stats],
    bytes: (u64, u64),
    routed: bool,
) -> Values {
    let mut v = Values::new();
    let empty = Hist::new();
    for verb in CLIENT_VERBS {
        let h = all.verbs.get(verb).unwrap_or(&empty);
        for (q, name) in [(0.50, "p50_us"), (0.99, "p99_us")] {
            let us = h.quantile_ns(q) / 1e3;
            put(&mut v, &format!("client.{verb}.{name}"), us, h.count());
        }
    }
    let floor = ping.quantile_ns(0.5) / 1e3;
    put(&mut v, "client.rtt.ping_us", floor, ping.count());

    let deltas: Vec<Stats> = after.iter().zip(before).map(|(a, b)| a.since(b)).collect();
    let delta = pooled(&deltas);
    let level = pooled(after);
    let reads = read_verbs();
    for verb in HANDLE_VERBS {
        let (n, us) = if verb == "read" {
            delta.handled(&reads)
        } else {
            delta.handled(&[verb])
        };
        put(
            &mut v,
            &format!("server.handle.{verb}_us"),
            per(us as f64, n),
            n,
        );
    }
    for (metric, counter) in COUNTERS {
        put(&mut v, metric, delta.gauge(counter) as f64, 1);
    }
    for (metric, gauge) in LEVELS {
        put(&mut v, metric, level.gauge(gauge) as f64, 1);
    }
    put(
        &mut v,
        "server.registry.session_bytes_start",
        bytes.0 as f64,
        1,
    );
    put(
        &mut v,
        "server.registry.session_bytes_end",
        bytes.1 as f64,
        1,
    );

    // Client time the servers' handlers do not account for: sockets,
    // framing, flush, client decode — and, when routed, the router.
    let (read_n, read_us) = delta.handled(&reads);
    let residual_read = per(all.reads.sum_us() - read_us as f64, all.reads.count());
    put(&mut v, "wire.residual.read_us", residual_read, read_n);
    let writes = all.verbs.iter().filter(|(verb, _)| !reads.contains(verb));
    let (write_n, client_write_us) =
        writes.fold((0, 0.0), |(n, us), (_, h)| (n + h.count(), us + h.sum_us()));
    let server_write_us: u64 = delta
        .cmds
        .iter()
        .filter(|(verb, _)| {
            !reads.contains(&verb.as_str()) && !CONTROL_VERBS.contains(&verb.as_str())
        })
        .map(|(_, c)| c.total_us)
        .sum();
    let residual_write = per(client_write_us - server_write_us as f64, write_n);
    put(&mut v, "wire.residual.write_us", residual_write, write_n);

    let (hits, misses) = (delta.gauge("cache_hits"), delta.gauge("cache_misses"));
    let ratio = per(hits as f64, hits + misses);
    put(&mut v, "server.cache.hit_ratio", ratio, hits + misses);

    for op in ["mine", "aggregate", "populate"] {
        let e = delta.execs.get(op).copied().unwrap_or_default();
        let wall = per(e.wall_us as f64, e.count);
        put(&mut v, &format!("exec.{op}.wall_us"), wall, e.count);
        let cpu = per(e.cpu_us as f64, e.count);
        put(&mut v, &format!("exec.{op}.cpu_us"), cpu, e.count);
    }
    let ops = delta.gauge("exec_parallel_ops");
    let shards = per(delta.gauge("exec_shards") as f64, ops);
    put(&mut v, "exec.shards_per_op", shards, ops);

    let x_mean = |stats: &Stats, verb: &str| {
        let (n, us) = stats.handled(&[verb]);
        (per(us as f64, n), n)
    };
    for x in ["xpart", "xstage", "xapply"] {
        let (mean, n) = x_mean(&delta, x);
        put(&mut v, &format!("router.backend.{x}_us"), mean, n);
    }
    // Every scattered op is applied once on each backend, and the router
    // stages to the backends one after the other.
    let scattered = deltas[0].handled(&["xapply"]).0;
    let staged = delta.handled(&["xstage"]).0;
    let lines = per(staged as f64, scattered);
    put(&mut v, "router.xstage.lines_per_op", lines, scattered);
    let part_means: Vec<f64> = deltas
        .iter()
        .map(|d| x_mean(d, "xpart").0)
        .filter(|m| *m > 0.0)
        .collect();
    let slowest = part_means.iter().copied().fold(0.0, f64::max);
    let fastest = part_means.iter().copied().fold(f64::INFINITY, f64::min);
    let skew = if part_means.is_empty() {
        0.0
    } else {
        slowest / fastest
    };
    let backends = part_means.len() as u64;
    put(&mut v, "router.scatter.backend_skew", skew, backends);
    let (hop, hop_n) = if routed {
        (residual_read, read_n)
    } else {
        (0.0, 0)
    };
    put(&mut v, "router.hop.residual_us", hop, hop_n);
    v
}
