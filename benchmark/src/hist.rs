//! Fixed-memory log-linear latency histogram.
//!
//! Values are nanoseconds. Each power-of-two octave is split into
//! [`SUB`] linear buckets, so a bucket is at most 1/256 of its lower edge
//! wide and a quantile read from it is within 0.4 % of the sample it
//! stands for. Memory is `OCTAVES × SUB × 4` bytes whatever the op count,
//! so the bench's own footprint stays out of `peak_rss_mb`.

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: values up to 2^(8+34) ns ≈ 73 min.
const OCTAVES: usize = 34;
const BUCKETS: usize = SUB + OCTAVES * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize; // exact
    }
    let shift = (63 - ns.leading_zeros() - SUB_BITS) as usize;
    if shift >= OCTAVES {
        return BUCKETS - 1; // overflow clamps into the last bucket
    }
    (shift + 1) * SUB + ((ns >> shift) as usize - SUB)
}

/// `[lo, hi)` in nanoseconds of bucket `b`.
fn edges(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, b as f64 + 1.0);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((SUB + b % SUB) as u64) << shift;
    (lo as f64, (lo + (1u64 << shift)) as f64)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of the samples in microseconds (kept outside the
    /// buckets).
    pub fn sum_us(&self) -> f64 {
        self.sum_ns as f64 / 1e3
    }

    /// The `q`-quantile in nanoseconds by nearest rank, interpolated
    /// inside the bucket that holds the rank so the value is not pinned
    /// to a bucket edge. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && seen + c >= rank {
                let (lo, hi) = edges(b);
                let inside = (rank - seen) as f64 - 0.5;
                return lo + (hi - lo) * inside / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn reference(sorted: &[u64], q: f64) -> f64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_one_percent() {
        let mut rng = Rng::new(7);
        // Latency-shaped: a tight mode near 44 ms, a long tail, and a few
        // sub-microsecond values.
        let mut samples: Vec<u64> = (0..20_000)
            .map(|i| match i % 10 {
                0 => 100 + rng.below(900),
                1..=7 => 44_000_000 + rng.below(400_000),
                8 => 50_000_000 + rng.below(100_000_000),
                _ => 1_000_000_000 + rng.below(3_000_000_000),
            })
            .collect();
        let mut h = Hist::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let want = reference(&samples, q);
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() <= want * 0.01,
                "q={q}: histogram {got} vs sorted {want}"
            );
        }
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!((h.sum_us() * 1e3 / h.count() as f64 - mean).abs() < 1.0);
        assert_eq!(h.count(), 20_000);
    }

    #[test]
    fn small_values_are_exact_and_overflow_clamps() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 255] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.25).floor(), 0.0);
        assert_eq!(h.quantile_ns(1.0).floor(), 255.0);
        h.record(u64::MAX);
        assert!(h.quantile_ns(1.0) > 1e12);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..1000u64 {
            let ns = v * v * 37 + 5;
            if v % 2 == 0 { &mut a } else { &mut b }.record(ns);
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile_ns(q), both.quantile_ns(q));
        }
    }

    #[test]
    fn every_bucket_contains_its_own_edges() {
        for b in (0..BUCKETS - 1).step_by(97) {
            let (lo, hi) = edges(b);
            assert_eq!(bucket_of(lo as u64), b);
            assert_eq!(bucket_of(hi as u64 - 1), b);
        }
    }
}
