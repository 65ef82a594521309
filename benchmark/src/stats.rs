//! Parser for the server's `stats` reply, and the before/after delta the
//! per-layer **S** metrics are computed from.

use std::collections::BTreeMap;

/// One `cmd <verb> count … errors … mean_us …` line. `total_us` is
/// rebuilt as `count × mean_us`; the server prints the mean truncated to
/// whole microseconds, so a delta of `n` requests is within `n` µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmdStat {
    pub count: u64,
    pub errors: u64,
    pub total_us: u64,
}

/// One `exec <op> count … shards … wall_us … cpu_us …` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStat {
    pub count: u64,
    pub shards: u64,
    pub wall_us: u64,
    pub cpu_us: u64,
}

/// A parsed `stats` reply (or the sum of several servers' replies).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// `name value` lines: counters and gauges.
    pub gauges: BTreeMap<String, u64>,
    pub cmds: BTreeMap<String, CmdStat>,
    pub execs: BTreeMap<String, ExecStat>,
}

/// The value following `key` in a whitespace-split line.
fn field(tokens: &[&str], key: &str) -> Option<u64> {
    let at = tokens.iter().position(|t| *t == key)?;
    tokens.get(at + 1)?.parse().ok()
}

impl Stats {
    /// Parse a `stats` payload. Lines of an unknown shape are an error: a
    /// silent skip would turn a renamed counter into a zero delta.
    pub fn parse(payload: &str) -> Result<Stats, String> {
        let mut stats = Stats::default();
        for line in payload.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("unrecognised stats line {line:?}");
            match tokens.as_slice() {
                [] => {}
                ["cmd", verb, rest @ ..] => {
                    let count = field(rest, "count").ok_or_else(bad)?;
                    let stat = CmdStat {
                        count,
                        errors: field(rest, "errors").ok_or_else(bad)?,
                        total_us: count * field(rest, "mean_us").ok_or_else(bad)?,
                    };
                    stats.cmds.insert(verb.to_string(), stat);
                }
                ["exec", op, rest @ ..] => {
                    let stat = ExecStat {
                        count: field(rest, "count").ok_or_else(bad)?,
                        shards: field(rest, "shards").ok_or_else(bad)?,
                        wall_us: field(rest, "wall_us").ok_or_else(bad)?,
                        cpu_us: field(rest, "cpu_us").ok_or_else(bad)?,
                    };
                    stats.execs.insert(op.to_string(), stat);
                }
                [name, value] => {
                    stats
                        .gauges
                        .insert(name.to_string(), value.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(stats)
    }

    /// Add another server's numbers (the routed workload scrapes each
    /// backend directly).
    pub fn add(&mut self, other: &Stats) {
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.cmds {
            let e = self.cmds.entry(k.clone()).or_default();
            e.count += v.count;
            e.errors += v.errors;
            e.total_us += v.total_us;
        }
        for (k, v) in &other.execs {
            let e = self.execs.entry(k.clone()).or_default();
            e.count += v.count;
            e.shards += v.shards;
            e.wall_us += v.wall_us;
            e.cpu_us += v.cpu_us;
        }
    }

    /// `self − before` for every counter. Gauges that are levels rather
    /// than counters (`cache_entries`, `cache_bytes`, …) are read from the
    /// later scrape directly, not from the delta.
    pub fn since(&self, before: &Stats) -> Stats {
        let mut delta = Stats::default();
        for (k, v) in &self.gauges {
            let was = before.gauges.get(k).copied().unwrap_or(0);
            delta.gauges.insert(k.clone(), v.saturating_sub(was));
        }
        for (k, v) in &self.cmds {
            let was = before.cmds.get(k).copied().unwrap_or_default();
            delta.cmds.insert(
                k.clone(),
                CmdStat {
                    count: v.count - was.count,
                    errors: v.errors - was.errors,
                    total_us: v.total_us.saturating_sub(was.total_us),
                },
            );
        }
        for (k, v) in &self.execs {
            let was = before.execs.get(k).copied().unwrap_or_default();
            delta.execs.insert(
                k.clone(),
                ExecStat {
                    count: v.count - was.count,
                    shards: v.shards - was.shards,
                    wall_us: v.wall_us - was.wall_us,
                    cpu_us: v.cpu_us - was.cpu_us,
                },
            );
        }
        delta
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Requests and summed handler microseconds over `verbs`.
    pub fn handled(&self, verbs: &[&str]) -> (u64, u64) {
        verbs
            .iter()
            .filter_map(|v| self.cmds.get(*v))
            .fold((0, 0), |(n, us), c| (n + c.count, us + c.total_us))
    }
}

/// `~<bytes> bytes` of session `name` in a `sessions` reply.
pub fn session_bytes(sessions_reply: &str, name: &str) -> Option<u64> {
    let line = sessions_reply
        .lines()
        .find(|l| l.split(':').next() == Some(name))?;
    let tail = line.rsplit('~').next()?;
    tail.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `gea-server` at the commit this benchmark was defined
    /// on: `open s demo 42`, one brain pipeline (with one failing `gap`),
    /// three `show`s of which one hit the cache, `purity`, then `stats`.
    const CAPTURED: &str = "\
uptime_seconds 1
connections_active 1
connections_total 1
connections_rejected 0
requests_total 11
errors_total 1
cache_hits 1
cache_misses 3
cache_evictions 0
cache_rejected 0
budget_rejected 0
opt_rewrites 1
opt_key_unified 0
sessions_evicted 0
sessions_spilled 0
sessions_restored 0
spill_errors 0
sessions_prefetched 0
exec_parallel_ops 3
exec_shards 9
exec aggregate count 1 shards 6 wall_us 651 cpu_us 62
exec mine count 1 shards 1 wall_us 33 cpu_us 32
exec populate count 1 shards 2 wall_us 349 cpu_us 4
cmd dataset count 1 errors 0 mean_us 84 p50_us 128 p95_us 128 max_us 84 hist_log2us [0 0 0 0 0 0 1]
cmd gap count 2 errors 1 mean_us 285 p50_us 256 p95_us 512 max_us 422 hist_log2us [0 0 0 0 0 0 0 1 1]
cmd groups count 1 errors 0 mean_us 1609 p50_us 2048 p95_us 2048 max_us 1609 hist_log2us [0 0 0 0 0 0 0 0 0 0 1]
cmd mine count 1 errors 0 mean_us 1614 p50_us 2048 p95_us 2048 max_us 1614 hist_log2us [0 0 0 0 0 0 0 0 0 0 1]
cmd open count 1 errors 0 mean_us 169086 p50_us 262144 p95_us 262144 max_us 169086 hist_log2us [0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1]
cmd populate count 1 errors 0 mean_us 1632 p50_us 2048 p95_us 2048 max_us 1632 hist_log2us [0 0 0 0 0 0 0 0 0 0 1]
cmd purity count 1 errors 0 mean_us 31 p50_us 32 p95_us 32 max_us 31 hist_log2us [0 0 0 0 1]
cmd show count 3 errors 0 mean_us 226 p50_us 512 p95_us 512 max_us 348 hist_log2us [0 0 0 0 1 0 0 0 2]
cache_entries 3
cache_bytes 885
cache_budget_bytes 8388608
";

    #[test]
    fn parses_a_captured_reply() {
        let s = Stats::parse(CAPTURED).unwrap();
        assert_eq!(s.gauge("cache_hits"), 1);
        assert_eq!(s.gauge("cache_bytes"), 885);
        assert_eq!(s.gauge("absent"), 0);
        assert_eq!(
            s.cmds["gap"],
            CmdStat {
                count: 2,
                errors: 1,
                total_us: 570
            }
        );
        assert_eq!(s.cmds.len(), 8);
        assert_eq!(s.execs["aggregate"].shards, 6);
        assert_eq!(s.execs["populate"].cpu_us, 4);
        assert_eq!(s.handled(&["show", "purity", "absent"]), (4, 3 * 226 + 31));
    }

    #[test]
    fn delta_subtracts_counters_and_tolerates_new_verbs() {
        let before = Stats::parse(CAPTURED).unwrap();
        let later = CAPTURED
            .replace("cache_hits 1", "cache_hits 101")
            .replace("cmd show count 3 errors 0 mean_us 226", "cmd show count 103 errors 0 mean_us 27")
            .replace("exec mine count 1 shards 1 wall_us 33", "exec mine count 3 shards 3 wall_us 2033")
            + "cmd lineage count 5 errors 0 mean_us 9 p50_us 16 p95_us 16 max_us 12 hist_log2us [0 0 0 5]\n";
        let after = Stats::parse(&later).unwrap();
        let d = after.since(&before);
        assert_eq!(d.gauge("cache_hits"), 100);
        assert_eq!(d.gauge("cache_misses"), 0);
        assert_eq!(d.cmds["show"].count, 100);
        assert_eq!(d.cmds["show"].total_us, 103 * 27 - 3 * 226);
        assert_eq!(d.cmds["lineage"].count, 5);
        assert_eq!(d.cmds["gap"], CmdStat::default());
        assert_eq!(d.execs["mine"].wall_us, 2000);
        assert_eq!(d.handled(&["show"]), (100, 2103));
        assert_eq!(d.handled(&["load"]), (0, 0));
    }

    #[test]
    fn sums_backends_and_rejects_unknown_shapes() {
        let one = Stats::parse(CAPTURED).unwrap();
        let mut two = one.clone();
        two.add(&one);
        assert_eq!(two.cmds["show"].count, 6);
        assert_eq!(two.execs["aggregate"].wall_us, 1302);
        assert_eq!(two.gauge("requests_total"), 22);
        assert!(Stats::parse("cmd gap count x").is_err());
        assert!(Stats::parse("three bare words").is_err());
    }

    #[test]
    fn reads_session_bytes() {
        let reply = "other: 0 attached request(s), generation 1, ~99 bytes\n\
                     s: 1 attached request(s), generation 41, ~128034511 bytes";
        assert_eq!(session_bytes(reply, "s"), Some(128034511));
        assert_eq!(session_bytes(reply, "missing"), None);
    }
}
