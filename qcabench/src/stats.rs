//! Summary statistics used by every workload.

/// Geometric mean of positive values (each sample weighs the same whatever
/// its magnitude); `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    (sum / values.len() as f64).exp()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted values: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile of `n` samples: p99 when at least ten samples lie
/// beyond it (`n >= 1000`), else the highest percentile that keeps ten
/// beyond it, but never below the median.
pub fn tail_rank(n: usize) -> f64 {
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 99.0)
}

/// The latency tail. From 1000 samples on, the mean of the slowest 1%
/// (the mean beyond p99): where the slow operations form several modes,
/// as serve-zipf's 4- and 5-qubit solves do, p99 itself falls on a mode
/// boundary and jumps between modes from run to run. Fewer samples give
/// [`percentile`] at [`tail_rank`].
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 1000 {
        return percentile(values, tail_rank(n));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let slowest = &sorted[n - n / 100..];
    slowest.iter().sum::<f64>() / slowest.len() as f64
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_hand_worked_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        // The textbook example: 15, 20, 35, 40, 50.
        let v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // p99 of 1..=200 is the 198th smallest value.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 198.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        // Tail: the mean of the slowest 1% from 1000 samples on (of
        // 1..=2000, the mean of 1981..=2000); 600 samples keep ten beyond
        // p98.33 (the 590th value); 28 samples fall back to p64.29 (the
        // 18th); tiny runs to the median.
        assert_eq!(tail_rank(30_000), 99.0);
        assert_eq!(tail_rank(1000), 99.0);
        let v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        assert_eq!(tail(&v), 1990.5);
        let w: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(tail(&w), 590.0);
        let x: Vec<f64> = (1..=28).map(f64::from).collect();
        assert_eq!(tail(&x), 18.0);
        assert_eq!(tail_rank(12), 50.0);
    }
}
