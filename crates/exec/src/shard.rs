//! Contiguous, stable-order input partitioning.

/// A partition of `n` items (tag rows, libraries, clusters — anything
/// indexed `0..n`) into at most `k` contiguous half-open ranges of
/// near-equal size, in stable ascending order.
///
/// Invariants: ranges are non-empty (unless `n == 0`, which yields the
/// single empty range `[0, 0)`), adjacent, and cover `0..n` exactly —
/// concatenating per-range results in plan order therefore reproduces the
/// serial iteration order. The first `n % k` ranges are one item longer,
/// so the plan is deterministic in `n` and `k` alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    bounds: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partition `n` items into at most `shards` contiguous ranges.
    /// `shards` is clamped to `[1, max(n, 1)]` so no range is empty.
    pub fn new(n: usize, shards: usize) -> ShardPlan {
        let k = shards.max(1).min(n.max(1));
        let base = n / k;
        let rem = n % k;
        let mut bounds = Vec::with_capacity(k);
        let mut lo = 0;
        for i in 0..k {
            let len = base + usize::from(i < rem);
            bounds.push((lo, lo + len));
            lo += len;
        }
        debug_assert_eq!(lo, n);
        ShardPlan { n, bounds }
    }

    /// Number of shards in the plan (at least 1).
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the plan has no shards. Never true — a plan always has at
    /// least one (possibly empty) range — but clippy insists `len` has a
    /// companion.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Total items partitioned.
    pub fn n_items(&self) -> usize {
        self.n
    }

    /// The `i`-th half-open range `[lo, hi)`.
    pub fn range(&self, i: usize) -> (usize, usize) {
        self.bounds[i]
    }

    /// The `i`-th range, or `None` at or past [`ShardPlan::len`]. The
    /// shard count is clamped to the item count, so when there are fewer
    /// items than requested shards the trailing shards do not exist — a
    /// backend asked for shard 2 of 3 over a 2-cluster mine gets `None`
    /// and contributes nothing, exactly as if the serial loop had never
    /// reached it.
    pub fn get(&self, i: usize) -> Option<(usize, usize)> {
        self.bounds.get(i).copied()
    }

    /// All ranges in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bounds.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_exactly_in_order() {
        for n in [0usize, 1, 2, 3, 7, 10, 100, 101] {
            for k in [1usize, 2, 3, 4, 7, 16, 200] {
                let plan = ShardPlan::new(n, k);
                assert_eq!(plan.n_items(), n);
                assert!(!plan.is_empty());
                assert!(plan.len() <= k.max(1));
                let mut expect = 0;
                for (lo, hi) in plan.ranges() {
                    assert_eq!(lo, expect, "n={n} k={k}");
                    assert!(hi >= lo);
                    expect = hi;
                }
                assert_eq!(expect, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn near_equal_sizes() {
        let plan = ShardPlan::new(10, 3);
        let sizes: Vec<usize> = plan.ranges().map(|(lo, hi)| hi - lo).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn empty_input_is_one_empty_shard() {
        let plan = ShardPlan::new(0, 8);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.range(0), (0, 0));
    }

    #[test]
    fn shards_past_a_clamped_plan_do_not_exist() {
        // 2 items over 5 shards: the plan clamps to 2.
        let plan = ShardPlan::new(2, 5);
        assert_eq!(plan.get(1), Some((1, 2)));
        assert_eq!(plan.get(2), None);
        assert_eq!(plan.get(4), None);
    }

    #[test]
    fn deterministic() {
        assert_eq!(ShardPlan::new(97, 7), ShardPlan::new(97, 7));
    }
}
