//! Seeded randomness of the benchmark's own: every input the program
//! receives is derived from the workload seed through these functions.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// An independent sub-seed for item `index` of stream `stream` under the
/// workload seed: one generator per stream keeps streams from overlapping.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut g = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut h = SplitMix64::new(g.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h.next_u64()
}

/// Zipf popularity over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`, by inverting the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
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
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(derive(1, 0, 0), derive(2, 0, 0));
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut g = SplitMix64::new(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut g)] += 1;
        }
        // P(rank 0) = 1/H_100 ≈ 0.193; rank 1 half of that.
        assert!((3500..4200).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts[99] > 0);
    }
}
