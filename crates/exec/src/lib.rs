//! # gea-exec — the sharded parallel execution engine
//!
//! Every operator in `gea-core` is single-threaded; this crate fans the
//! embarrassingly parallel ones — `mine` materialization, ISA seeds,
//! `populate` qualification and `aggregate` — across a hand-rolled scoped
//! worker pool, one contiguous shard per job, and merges the shard
//! results with an order-stable reduction.
//!
//! The contract is **byte identity**: for any shard count and any thread
//! count, a sharded driver returns exactly the bits the serial operator
//! would. That holds because
//!
//! * the tag-rotated [`gea_sage::ExpressionMatrix`] stores each tag's
//!   values as one contiguous physical row, so partitioning by tag (for
//!   `aggregate`) or by library (for `populate`) splits the input into
//!   ranges whose per-item arithmetic never crosses a shard boundary;
//! * every shard runs the *serial* per-item code (`gea-core` exposes its
//!   per-row arithmetic precisely so no floating-point reassociation can
//!   creep in); and
//! * shards are merged by concatenation in shard-index order, which by
//!   construction is the serial iteration order.
//!
//! Two layers: [`drivers`] shards operators over plain tables, and
//! [`scatter`] is the session-level seam — `prepare → partial(range) →
//! install` per scan-shaped macro operation — that the in-process pool
//! ([`scatter::run`]) and `gea-server`'s router-facing `xpart`/`xapply`
//! verbs both call, so one server, a sharded one and a routed fleet run
//! one implementation of each per-shard computation.
//!
//! The pool is built on [`std::thread::scope`] — the build is offline, so
//! no rayon — and sized by [`ExecConfig`] (re-exported from `gea-core`),
//! which defaults to the machine's available parallelism.

#![warn(missing_docs)]

pub mod drivers;
pub mod pool;
pub mod scatter;
pub mod shard;

pub use drivers::{
    aggregate_sharded, aggregate_tags_sharded, mine_sharded, populate_columnar_sharded,
    simplex_mine_sharded,
};
pub use gea_core::session::{ExecConfig, ExecEvent};
pub use pool::run_jobs;
pub use scatter::{mine_simplex_sharded, Partial, Prepared, ScatterOp};
pub use shard::ShardPlan;

/// Wall/busy accounting for one sharded execution. `busy_us` sums the
/// per-job busy times, so `busy_us / wall_us` approximates the achieved
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Number of shards the input was split into.
    pub shards: usize,
    /// Wall-clock duration of the parallel section, microseconds.
    pub wall_us: u64,
    /// Summed per-worker busy time (CPU-time proxy), microseconds.
    pub busy_us: u64,
}

impl ExecStats {
    /// Tag these stats with an operator name, producing the event the
    /// session-level wrappers note on the [`gea_core::GeaSession`].
    pub fn event(self, op: &'static str) -> ExecEvent {
        ExecEvent {
            op,
            shards: self.shards,
            wall_us: self.wall_us,
            busy_us: self.busy_us,
        }
    }
}
