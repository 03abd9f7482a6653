//! Order statistics and the benchmark's own seeded generator.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Percentile `p` (0–100) of an already sorted sample, by linear
/// interpolation between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&v, p)
}

/// Consecutive windows of `window` values; a trailing partial window is
/// dropped unless it is the only one.
pub fn windows<T>(xs: &[T], window: usize) -> impl Iterator<Item = &[T]> {
    xs.chunks(window)
        .filter(move |c| c.len() == window || xs.len() < window)
}

/// A run's summary of repeated timings: their lower quartile. Other
/// tenants of the host only ever add time, in spells of milliseconds to
/// minutes, so the fast side of a run's samples moves less from run to
/// run than their median, while a change to the program's own cost moves
/// every sample alike.
pub fn fast_time(xs: &[f64]) -> f64 {
    percentile(xs, 25.0)
}

/// The same for rates, where fast is high: the upper quartile.
pub fn fast_rate(xs: &[f64]) -> f64 {
    percentile(xs, 75.0)
}

/// SplitMix64: the benchmark's input generator. Every workload input
/// (fold split aside, which the program's own `kfold_by_group` draws
/// from the same seed) comes from one of these, so a seed fixes the
/// inputs exactly.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
    }

    #[test]
    fn one_stall_sets_one_window_at_most() {
        let mut xs = vec![1.0; 4010];
        xs[17] = 1e6;
        let tails: Vec<f64> = windows(&xs, 1000).map(|w| percentile(w, 99.9)).collect();
        assert_eq!(tails.len(), 4, "the partial window is dropped");
        assert_eq!(fast_time(&tails), 1.0);
        assert_eq!(median(&tails), 1.0);
        assert_eq!(
            windows(&xs[..10], 1000).count(),
            1,
            "unless it is the only one"
        );
    }

    #[test]
    fn fast_quartiles() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(fast_time(&xs), 3.0);
        assert_eq!(fast_rate(&xs), 7.0);
    }

    #[test]
    fn generator_is_seeded_and_bounded() {
        let a: Vec<usize> = {
            let mut g = SplitMix::new(7, 1);
            (0..100).map(|_| g.below(45)).collect()
        };
        let mut g = SplitMix::new(7, 1);
        assert!(a.iter().all(|&x| x < 45));
        assert_eq!(a, (0..100).map(|_| g.below(45)).collect::<Vec<_>>());
        let mut h = SplitMix::new(8, 1);
        assert_ne!(a, (0..100).map(|_| h.below(45)).collect::<Vec<_>>());
    }
}
