//! Order statistics for noisy host-time samples.
//!
//! Every gated host-time metric is derived from a **low quantile**
//! ([`GATE_QUANTILE`]) of a phase cut into many like pieces. On the shared
//! 2-core reference host the same binary runs in two or three speed
//! regimes tens of percent apart — neighbours taking the shared cache —
//! that last seconds to minutes, so most of a run's samples say which
//! regime the run met, not how fast the program is. The time a twentieth
//! of the samples beat is the statistic whose run-to-run spread stayed
//! smallest across all regimes recorded (numbers: `README.md`); the
//! quartiles, the median and a tail percentile are reported beside it,
//! ungated.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `sorted` (ascending): the
/// value at fractional rank `q · (n − 1)`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Nearest-rank percentile of a histogram: the index of the first bin
/// with at least `q` of the mass at or below it. `None` when the
/// histogram is empty.
pub fn histogram_quantile(hist: &[u64], q: f64) -> Option<u64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (value, &n) in hist.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Some(value as u64);
        }
    }
    None
}

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// with at least `q` of the samples at or below it. `None` when there are
/// none.
pub fn nearest_rank(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied()
}

/// The highest percentile that still has at least ten samples beyond it:
/// p87 of 80 samples, p95 of 200, p99 of 1000. Below 20 samples there is
/// no such percentile and the maximum is used.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        1.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// The quantile of a phase's samples that a gated host-time metric is
/// computed from: the time a twentieth of the samples beat.
pub const GATE_QUANTILE: f64 = 0.05;

/// What one phase's samples reduce to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// [`GATE_QUANTILE`] of the samples — the gated statistic.
    pub gate: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// [`tail_quantile`] of the samples.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        Summary {
            n: s.len(),
            gate: quantile(&s, GATE_QUANTILE),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            tail: quantile(&s, tail_quantile(s.len())),
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// within-run spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Median of `samples` (any order); used for `setup_s`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        let even = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&even, 0.5) - 25.0).abs() < 1e-12);
        assert!((quantile(&even, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn summary_orders_and_measures_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3, s.tail), (5, 2.0, 3.0, 4.0, 5.0));
        assert!((s.gate - 1.2).abs() < 1e-12);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10), 1.0);
        assert!((tail_quantile(80) - 0.875).abs() < 1e-12);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert!((tail_quantile(1000) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank(&[], 0.99), None);
    }

    #[test]
    fn histogram_quantile_is_nearest_rank() {
        // 100 samples: value 3 ×90, value 7 ×9, value 9 ×1.
        let mut h = vec![0u64; 10];
        h[3] = 90;
        h[7] = 9;
        h[9] = 1;
        assert_eq!(histogram_quantile(&h, 0.5), Some(3));
        assert_eq!(histogram_quantile(&h, 0.90), Some(3));
        assert_eq!(histogram_quantile(&h, 0.91), Some(7));
        assert_eq!(histogram_quantile(&h, 0.99), Some(7));
        assert_eq!(histogram_quantile(&h, 1.0), Some(9));
        assert_eq!(histogram_quantile(&[0, 0], 0.99), None);
    }
}
