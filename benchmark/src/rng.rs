//! The key-choice PRNG: SplitMix64, seeded from `--seed` and the client
//! index, so the same seed replays the same command stream.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for client `index` of a run seeded `seed`.
    pub fn for_client(seed: u64, index: usize) -> Rng {
        let mut root = Rng(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
        Rng(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is below
    /// 2^-40 for the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s = 1.0) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_clients_differ() {
        let draw = |seed, client| {
            let mut rng = Rng::for_client(seed, client);
            let zipf = Zipf::new(64);
            (0..256).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
        assert_ne!(draw(42, 0), draw(2002, 0));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_range() {
        let mut rng = Rng::new(1);
        let zipf = Zipf::new(64);
        let mut hits = [0u32; 64];
        for _ in 0..100_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0));
        // Rank 0 carries 1/H(64) = 21 % of the mass, rank 63 1/64 of that.
        assert!((20_000..22_500).contains(&hits[0]), "{}", hits[0]);
        assert!(hits[0] > 30 * hits[63]);
    }
}
