//! Serial-vs-sharded speedup experiment behind `BENCH_parallel.json`.
//!
//! Runs each parallelized operator — `populate`, `aggregate`, `mine` —
//! first through the serial `gea-core` path and then through the
//! `gea-exec` sharded driver at a configured thread count, over the
//! thesis-scale [`populate_workload`] corpus. Each row records both wall
//! times, the speedup, and whether the sharded result was byte-identical
//! to the serial one (it must be — that is `gea-exec`'s contract, and the
//! bench re-verifies it on real data rather than trusting the unit suite).
//!
//! Speedup is bounded by the host: the emitted JSON records
//! `host_parallelism` so a ~1× result on a single-core runner is
//! distinguishable from a determinism regression (which would show up as
//! `identical: false`, never as a slow-but-correct run).

use std::time::Instant;

use gea_cluster::FascicleParams;
use gea_core::mine::{generate_metadata, mine, MinedCluster, Miner};
use gea_core::populate::{materialize_populate, populate};
use gea_core::sumy::aggregate;
use gea_core::ExecConfig;
use gea_exec::{aggregate_sharded, mine_sharded, populate_columnar_sharded};
use gea_sage::library::LibraryId;

use crate::workloads::populate_workload;

/// Shape of the speedup experiment.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Tags in the populate/aggregate corpus (thesis scale: 60,000).
    pub n_tags: usize,
    /// Tags in the (smaller) mining corpus — greedy fascicle mining is
    /// quadratic-ish in practice, so it gets its own scale knob.
    pub mine_tags: usize,
    /// Libraries in both corpora.
    pub n_libs: usize,
    /// Clustered member libraries (the populate answer by construction).
    pub n_members: usize,
    /// Member window width (per-condition selectivity knob).
    pub member_width: f64,
    /// Worker threads for the sharded runs (the serial runs always use 1).
    pub threads: usize,
    /// Timed repetitions per operator; the minimum wall time is kept.
    pub repetitions: usize,
    /// RNG seed for the synthetic corpora.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            n_tags: 60_000,
            mine_tags: 6_000,
            n_libs: 100,
            n_members: 5,
            member_width: 0.75,
            threads: 4,
            repetitions: 3,
            seed: 2002,
        }
    }
}

impl ParallelConfig {
    /// A seconds-scale variant for CI smoke runs.
    pub fn fast() -> ParallelConfig {
        ParallelConfig {
            n_tags: 4_000,
            mine_tags: 800,
            n_libs: 60,
            n_members: 4,
            member_width: 0.7,
            threads: 4,
            repetitions: 1,
            seed: 7,
        }
    }
}

/// One operator's serial-vs-sharded measurement.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Operator name (`populate`, `aggregate`, `mine`).
    pub op: &'static str,
    /// Shards the sharded run split the input into.
    pub shards: usize,
    /// Serial wall time, milliseconds (minimum over repetitions).
    pub serial_ms: f64,
    /// Sharded wall time, milliseconds (minimum over repetitions).
    pub sharded_ms: f64,
    /// `serial_ms / sharded_ms`.
    pub speedup: f64,
    /// Whether the sharded result equalled the serial result exactly.
    pub identical: bool,
}

/// Time `a` and `b` over interleaved repetitions (A B A B …), returning
/// each side's last result and minimum wall time in milliseconds. The
/// interleaving keeps the comparison honest: in back-to-back blocks,
/// whichever side ran second inherited a warmed cache and a settled
/// allocator from the first.
fn time_pair<A, B>(
    repetitions: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((A, f64), (B, f64)) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let (mut out_a, mut out_b) = (None, None);
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        out_a = Some(a());
        best_a = best_a.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        out_b = Some(b());
        best_b = best_b.min(start.elapsed().as_secs_f64() * 1e3);
    }
    ((out_a.unwrap(), best_a), (out_b.unwrap(), best_b))
}

fn row(
    op: &'static str,
    shards: usize,
    serial_ms: f64,
    sharded_ms: f64,
    identical: bool,
) -> ParallelRow {
    ParallelRow {
        op,
        shards,
        serial_ms,
        sharded_ms,
        speedup: serial_ms / sharded_ms.max(1e-9),
        identical,
    }
}

fn clusters_identical(a: &[MinedCluster], b: &[MinedCluster]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.libraries == y.libraries
                && x.compact_tags == y.compact_tags
                && x.sumy == y.sumy
        })
}

/// Run the experiment: one [`ParallelRow`] per operator, sharded runs at
/// `cfg.threads` workers with one shard per worker.
pub fn run(cfg: &ParallelConfig) -> Vec<ParallelRow> {
    let exec = ExecConfig::with_threads(cfg.threads.max(1));
    let w = populate_workload(
        cfg.n_tags,
        cfg.n_libs,
        cfg.n_members,
        cfg.member_width,
        cfg.seed,
    );
    let member_ids: Vec<LibraryId> = w.members.iter().map(|&m| LibraryId(m as u32)).collect();
    let members = w.table.with_libraries("members", &member_ids);
    let sumy = aggregate("def", &members.matrix);

    let mut rows = Vec::new();

    let ((serial_pop, serial_ms), (sharded_pop, sharded_ms)) = time_pair(
        cfg.repetitions,
        || populate("hits", &sumy, &w.table),
        || {
            let (libs, _, stats) = populate_columnar_sharded(&sumy, &w.table, &exec);
            (materialize_populate("hits", &sumy, &w.table, &libs), stats)
        },
    );
    rows.push(row(
        "populate",
        sharded_pop.1.shards,
        serial_ms,
        sharded_ms,
        serial_pop == sharded_pop.0,
    ));

    let ((serial_agg, serial_ms), (sharded_agg, sharded_ms)) = time_pair(
        cfg.repetitions,
        || aggregate("agg", &w.table.matrix),
        || aggregate_sharded("agg", &w.table.matrix, &exec),
    );
    rows.push(row(
        "aggregate",
        sharded_agg.1.shards,
        serial_ms,
        sharded_ms,
        serial_agg == sharded_agg.0,
    ));

    let mw = populate_workload(
        cfg.mine_tags,
        cfg.n_libs,
        cfg.n_members,
        cfg.member_width,
        cfg.seed,
    );
    let tol = generate_metadata(&mw.table, 0.10);
    let miner = Miner::Fascicles(FascicleParams {
        min_compact_attrs: cfg.mine_tags / 2,
        min_records: 2,
        batch_size: 6,
    });
    let ((serial_mine, serial_ms), (sharded_mine, sharded_ms)) = time_pair(
        cfg.repetitions,
        || mine(&mw.table, "bench", &miner, Some(&tol)),
        || mine_sharded(&mw.table, "bench", &miner, Some(&tol), &exec),
    );
    rows.push(row(
        "mine",
        sharded_mine.1.shards,
        serial_ms,
        sharded_ms,
        clusters_identical(&serial_mine, &sharded_mine.0),
    ));

    rows
}

/// Render the rows as the `BENCH_parallel.json` document.
pub fn to_json(cfg: &ParallelConfig, rows: &[ParallelRow]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"parallel\",\n");
    out.push_str(&format!("  \"host_parallelism\": {host},\n"));
    out.push_str(&format!("  \"threads\": {},\n", cfg.threads));
    out.push_str(&format!(
        "  \"corpus\": {{\"n_tags\": {}, \"mine_tags\": {}, \"n_libs\": {}, \"n_members\": {}, \"member_width\": {}, \"seed\": {}}},\n",
        cfg.n_tags, cfg.mine_tags, cfg.n_libs, cfg.n_members, cfg.member_width, cfg.seed
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"shards\": {}, \"serial_ms\": {:.3}, \"sharded_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}{}\n",
            r.op,
            r.shards,
            r.serial_ms,
            r.sharded_ms,
            r.speedup,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_is_identical_and_renders() {
        let cfg = ParallelConfig {
            n_tags: 300,
            mine_tags: 120,
            n_libs: 20,
            n_members: 3,
            member_width: 0.7,
            threads: 2,
            repetitions: 1,
            seed: 11,
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 3);
        assert!(
            rows.iter().all(|r| r.identical),
            "sharded != serial: {rows:?}"
        );
        let json = to_json(&cfg, &rows);
        assert!(json.contains("\"op\": \"populate\""));
        assert!(json.contains("\"identical\": true"));
        assert!(!json.contains("identical\": false"));
    }
}
