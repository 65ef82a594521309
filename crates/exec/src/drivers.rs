//! The sharded parallel drivers: byte-identical fan-out/merge versions of
//! `aggregate`, `populate` and `mine`, over plain tables.
//!
//! Every driver follows the same shape: build a [`ShardPlan`] over the
//! operator's natural axis, run one job per shard on the scoped pool
//! ([`run_jobs`]), with each job executing the *serial* per-item code from
//! `gea-core`, then merge in shard order. See each driver's comment for
//! why its merge reproduces the serial result exactly — including the
//! deterministic work counters in [`PopulateStats`]. Each per-shard job
//! is a named kernel ([`materialize_groups`], [`converge_seeds`],
//! [`PopulateScan::prune`]) that the [`crate::scatter`] seam calls for
//! its partials too, so the pool here and the router's `xpart` run one
//! implementation.

use std::mem::MaybeUninit;
use std::sync::Mutex;
use std::time::Instant;

use gea_cluster::ToleranceVector;
use gea_core::mine::{materialize_groups, mine_groups, MinedCluster, Miner};
use gea_core::populate::{columnar_prune_range, resolve_conditions, PopulateStats};
use gea_core::sumy::{aggregate_rows_range_with, aggregate_tag_rows_with, SumyRow, SumyTable};
use gea_core::{EnumTable, ExecConfig};
use gea_mine::isa::{converge_seed, dedupe_modules, IsaModule, IsaParams, IsaScores};
use gea_mine::simplex::{
    assign_range, clr_embed, groups_from_assignment, kmedoids_with, SimplexParams,
};
use gea_sage::library::LibraryId;
use gea_sage::tag::TagId;
use gea_sage::ExpressionMatrix;

use crate::pool::run_jobs;
use crate::shard::ShardPlan;
use crate::ExecStats;

/// Run one job per shard of `plan`, timing the whole parallel section and
/// each job's busy time, and return the per-shard results in shard order
/// plus the filled-in [`ExecStats`].
///
/// The worker count is clamped to the host's parallelism: these jobs are
/// pure compute, so oversubscribing a smaller host buys nothing but
/// context switches — on a 1-core runner a 4-thread config now runs the
/// shards inline instead of paying the scheduler to interleave them.
/// Results are byte-identical at any worker count (that is the crate's
/// contract), so the clamp is invisible except in wall time.
pub(crate) fn run_sharded<T: Send>(
    cfg: &ExecConfig,
    plan: &ShardPlan,
    job: impl Fn(usize, usize, usize) -> T + Sync,
) -> (Vec<T>, ExecStats) {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let start = Instant::now();
    let results = run_jobs(cfg.threads.min(hw), plan.len(), |i| {
        let (lo, hi) = plan.range(i);
        let begin = Instant::now();
        let out = job(i, lo, hi);
        (out, begin.elapsed().as_micros() as u64)
    });
    let wall_us = start.elapsed().as_micros() as u64;
    let busy_us = results.iter().map(|(_, b)| b).sum();
    let outs = results.into_iter().map(|(out, _)| out).collect();
    (
        outs,
        ExecStats {
            shards: plan.len(),
            wall_us,
            busy_us,
        },
    )
}

/// Concatenate per-shard row vectors in shard order without growth
/// reallocations: one exact-capacity allocation, then a move-extend per
/// shard. (The old `flatten().collect()` merge could not size the output
/// up front, so it grew — and re-copied — the accumulated rows.) Used by
/// the mining drivers; the aggregate drivers go one step further and
/// skip the merge entirely ([`fill_rows_sharded`]).
///
/// This *is* the determinism argument: concatenation in shard-index
/// order equals serial iteration order.
pub(crate) fn merge_shards<T>(shards: Vec<Vec<T>>) -> Vec<T> {
    let total = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// Fan a row-producing kernel over `plan`, each shard writing its rows
/// straight into its disjoint slice of one exact-capacity output vector.
/// This *is* the shard merge for the aggregate drivers: per-shard staging
/// vectors and the final move of every row are gone — the allocation and
/// copy that used to eat the sharded `aggregate` win on small hosts.
///
/// `fill(lo, hi, sink)` must emit exactly `hi - lo` rows, in order, for
/// the plan range `[lo, hi)`. Each shard's slice is split off the
/// vector's spare capacity up front behind its own (never contended)
/// mutex, so the parallel writes are all safe code; the one `unsafe` is
/// the final `set_len`, sound because the slices partition `[0, total)`
/// and every job is checked to have filled its slice before the pool
/// joins. If a job panics, the panic propagates with the vector still at
/// length zero — rows written so far leak; they are not double-dropped.
fn fill_rows_sharded(
    cfg: &ExecConfig,
    plan: &ShardPlan,
    total: usize,
    fill: impl Fn(usize, usize, &mut dyn FnMut(SumyRow)) + Sync,
) -> (Vec<SumyRow>, ExecStats) {
    let mut out: Vec<SumyRow> = Vec::with_capacity(total);
    let stats = {
        let mut spare = &mut out.spare_capacity_mut()[..total];
        let mut parts: Vec<Mutex<&mut [MaybeUninit<SumyRow>]>> = Vec::with_capacity(plan.len());
        for i in 0..plan.len() {
            let (lo, hi) = plan.range(i);
            let (head, tail) = spare.split_at_mut(hi - lo);
            parts.push(Mutex::new(head));
            spare = tail;
        }
        let (_, stats) = run_sharded(cfg, plan, |i, lo, hi| {
            let mut part = parts[i].lock().expect("shard output slice poisoned");
            let mut next = 0usize;
            fill(lo, hi, &mut |row| {
                part[next] = MaybeUninit::new(row);
                next += 1;
            });
            assert_eq!(next, hi - lo, "kernel row count diverged from shard range");
        });
        stats
    };
    // SAFETY: the shard slices partition the first `total` slots, every
    // job filled its whole slice (asserted above), and `run_sharded`
    // joined all jobs before returning.
    unsafe { out.set_len(total) };
    (out, stats)
}

/// Sharded [`gea_core::sumy::aggregate`]: partition the tag rows, compute
/// each shard's rows with the blocked columnar kernel
/// ([`aggregate_rows_range_with`] — the same kernel, and therefore the
/// same per-tag operation order, as the serial operator), writing them
/// in place in shard order ([`fill_rows_sharded`]). The assembled vector
/// is the serial row order, and `SumyTable::new` maps equal inputs to
/// equal outputs — byte-identical.
pub fn aggregate_sharded(
    name: &str,
    matrix: &ExpressionMatrix,
    cfg: &ExecConfig,
) -> (SumyTable, ExecStats) {
    assert!(
        matrix.n_libraries() > 0,
        "cannot aggregate an ENUM table with no libraries"
    );
    let plan = ShardPlan::new(matrix.n_tags(), cfg.shards);
    let (rows, stats) = fill_rows_sharded(cfg, &plan, matrix.n_tags(), |lo, hi, sink| {
        aggregate_rows_range_with(matrix, lo, hi, sink)
    });
    (SumyTable::new(name, rows), stats)
}

/// Sharded [`gea_core::sumy::aggregate_tags`]: partition the *requested
/// tag list* (not the matrix) into contiguous slices; each shard runs the
/// blocked kernel ([`aggregate_tag_rows_with`]) over its slice, writing
/// in place like [`aggregate_sharded`].
pub fn aggregate_tags_sharded(
    name: &str,
    matrix: &ExpressionMatrix,
    tags: &[TagId],
    cfg: &ExecConfig,
) -> (SumyTable, ExecStats) {
    let (rows, stats) = tag_rows_sharded(matrix, tags, cfg);
    (SumyTable::new(name, rows), stats)
}

/// The rows of [`aggregate_tags_sharded`] before they are named: the
/// in-process sink of the `groups` seam, which names the three tables
/// only when it installs them.
pub(crate) fn tag_rows_sharded(
    matrix: &ExpressionMatrix,
    tags: &[TagId],
    cfg: &ExecConfig,
) -> (Vec<SumyRow>, ExecStats) {
    assert!(
        matrix.n_libraries() > 0,
        "cannot aggregate an ENUM table with no libraries"
    );
    let plan = ShardPlan::new(tags.len(), cfg.shards);
    fill_rows_sharded(cfg, &plan, tags.len(), |lo, hi, sink| {
        aggregate_tag_rows_with(matrix, &tags[lo..hi], sink)
    })
}

/// A `populate` qualification ready to prune library ranges: the SUMY's
/// conditions resolved once against the table's universe.
pub(crate) struct PopulateScan<'a> {
    table: &'a EnumTable,
    conditions: Vec<(Option<TagId>, f64, f64)>,
}

impl<'a> PopulateScan<'a> {
    pub(crate) fn new(sumy: &SumyTable, table: &'a EnumTable) -> PopulateScan<'a> {
        PopulateScan {
            table,
            conditions: resolve_conditions(sumy, table),
        }
    }

    pub(crate) fn n_libraries(&self) -> usize {
        self.table.n_libraries()
    }

    /// Prune the library range `[lo, hi)` with the serial columnar kernel:
    /// the surviving libraries (ascending) and the condition rows read.
    pub(crate) fn prune(&self, lo: usize, hi: usize) -> (Vec<LibraryId>, usize) {
        columnar_prune_range(&self.conditions, self.table, lo, hi)
    }
}

/// Sharded [`gea_core::populate::populate_columnar`]: partition the
/// libraries; each shard runs the serial pruning loop
/// ([`PopulateScan::prune`]) over its range, stopping when *its*
/// candidates empty. Pruning decisions are per-library, so each range
/// survives exactly the libraries the global loop would; and since the
/// global loop stops only when every range is empty, the serial
/// rows-processed count is the maximum over shards — the merged
/// comparison counter is therefore `max(rows) × n_libraries`, exactly the
/// serial charge.
pub fn populate_columnar_sharded(
    sumy: &SumyTable,
    table: &EnumTable,
    cfg: &ExecConfig,
) -> (Vec<LibraryId>, PopulateStats, ExecStats) {
    let scan = PopulateScan::new(sumy, table);
    let n = scan.n_libraries();
    let plan = ShardPlan::new(n, cfg.shards);
    let (shards, exec) = run_sharded(cfg, &plan, |_, lo, hi| scan.prune(lo, hi));
    let mut hits = Vec::new();
    let mut max_rows = 0usize;
    for (shard_hits, rows_processed) in shards {
        hits.extend(shard_hits);
        max_rows = max_rows.max(rows_processed);
    }
    let stats = PopulateStats {
        candidates: n,
        comparisons: (max_rows * n) as u64,
        ..PopulateStats::default()
    };
    (hits, stats, exec)
}

/// Sharded [`gea_core::mine::mine`]: the clustering pass
/// ([`mine_groups`]) stays serial — the greedy fascicle search is
/// iterative — and each found cluster's materialization (naming it and
/// numbering its ids; its tables are built when a session reads them) is
/// independent, so clusters are partitioned across the pool and
/// concatenated in cluster order.
pub fn mine_sharded(
    table: &EnumTable,
    base_name: &str,
    miner: &Miner,
    tolerance: Option<&ToleranceVector>,
    cfg: &ExecConfig,
) -> (Vec<MinedCluster>, ExecStats) {
    let groups = mine_groups(table, miner, tolerance);
    let plan = ShardPlan::new(groups.len(), cfg.shards);
    let (shards, stats) = run_sharded(cfg, &plan, |_, lo, hi| {
        materialize_groups(table, base_name, lo, groups[lo..hi].iter().cloned())
    });
    (merge_shards(shards), stats)
}

/// The per-range kernel of ISA: converge the seeds `[lo, hi)` with the
/// serial `converge_seed`, dead ones kept in place.
pub(crate) fn converge_seeds(
    scores: &IsaScores<'_>,
    params: &IsaParams,
    lo: usize,
    hi: usize,
) -> Vec<Option<IsaModule>> {
    (lo..hi)
        .map(|seed| converge_seed(scores, seed, params.seeds, params))
        .collect()
}

/// The gather half of ISA: dedupe the seed-order module list and
/// materialize the surviving clusters.
pub(crate) fn isa_clusters(
    table: &EnumTable,
    base_name: &str,
    modules: Vec<Option<IsaModule>>,
) -> Vec<MinedCluster> {
    materialize_groups(table, base_name, 0, dedupe_modules(modules))
}

/// Sharded [`gea_mine::SimplexBackend`]: medoid initialization and updates
/// stay serial (they are `O(k·n)` over a handful of medoids and
/// tie-sensitive); the `O(n·k)` assignment step — [`assign_range`]'s
/// documented shard seam — is partitioned over the point range each
/// round. Per-point nearest-medoid decisions are independent, so the
/// concatenation equals `assign_range(.., 0, n)` comparison for
/// comparison, and the whole k-medoids trajectory is byte-identical to
/// the serial `SimplexBackend::mine`. The returned stats sum every
/// assignment round's parallel section.
pub fn simplex_mine_sharded(
    table: &EnumTable,
    base_name: &str,
    params: &SimplexParams,
    cfg: &ExecConfig,
) -> (Vec<MinedCluster>, ExecStats) {
    let points = clr_embed(table, params.zero_repl);
    let plan = ShardPlan::new(points.len(), cfg.shards);
    let mut total = ExecStats::default();
    let (assign, medoids) = kmedoids_with(&points, params.k, params.max_iters, |pts, meds| {
        let (shards, stats) = run_sharded(cfg, &plan, |_, lo, hi| assign_range(pts, meds, lo, hi));
        total.shards = stats.shards;
        total.wall_us += stats.wall_us;
        total.busy_us += stats.busy_us;
        shards.into_iter().flatten().collect()
    });
    let groups = groups_from_assignment(table.n_tags(), medoids.len(), &assign);
    (materialize_groups(table, base_name, 0, groups), total)
}
