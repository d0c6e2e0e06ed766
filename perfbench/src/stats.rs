//! Exact-sample statistics: every percentile here is read from the sorted
//! samples themselves, never from a bucketed histogram.

/// Nearest-rank percentile (`q` in 0..=1) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples per window in [`windowed`].
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of [`WINDOW`] samples (in the
/// order given), of each window's `q` percentile. A host stall inflates
/// the tail of the windows it lands in, not the median window; a run with
/// fewer than two windows' samples falls back to the plain percentile.
pub fn windowed(samples: &[f64], q: f64) -> f64 {
    if samples.len() < 2 * WINDOW {
        return percentile(samples, q);
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .map(|w| percentile(w, q))
        .collect();
    median(&per_window)
}

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per
    /// second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut s: Vec<f64> = (0..5 * WINDOW).map(|i| (i % 100) as f64).collect();
        s[..WINDOW].iter_mut().for_each(|v| *v += 1000.0);
        assert_eq!(windowed(&s, 0.99), 98.0);
        assert_eq!(windowed(&s[..WINDOW], 0.5), percentile(&s[..WINDOW], 0.5));
    }

    #[test]
    fn rng_is_seeded() {
        assert_eq!(Rng::new(3).permutation(10), Rng::new(3).permutation(10));
        assert_ne!(Rng::new(3).permutation(10), Rng::new(4).permutation(10));
    }
}
