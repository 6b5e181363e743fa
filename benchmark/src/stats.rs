//! The benchmark's own arithmetic: order statistics, means, and the
//! open-loop schedule.

/// Sort ascending (`total_cmp`, so a stray NaN sorts last instead of
/// panicking) and return the slice for chaining.
pub fn sorted(v: &mut [f64]) -> &[f64] {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the element at index
/// `round((n - 1) * q)`, the same rule `exec::LatencySummary` uses, so
/// the benchmark's per-pass numbers and the drivers' agree.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median by the nearest-rank rule (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(sorted(v), 0.5)
}

/// Geometric mean; the empty product is 1.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the one worth reporting.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In per mille, so that 100 samples times 0.1 is exactly ten.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|q| n * (1000 - q) >= 10_000)
        .map_or(0.5, |q| q as f64 / 1000.0)
}

/// When data set `n` of an open loop at `rate` per second is due,
/// in seconds after the loop's start.
pub fn due_s(n: usize, rate: f64) -> f64 {
    n as f64 / rate
}

/// How late the generator ran. `stamps_s[n]` is when data set `n` was
/// actually made; it was due at `origin + n / rate`. The drivers keep the
/// origin to themselves, but they never push a data set before it is due,
/// so the origin is estimated as the latest one under which nothing was
/// made early: `min_n (stamps_s[n] - n / rate)`.
pub fn lateness_s(stamps_s: &[f64], rate: f64) -> Vec<f64> {
    let offsets: Vec<f64> = stamps_s
        .iter()
        .enumerate()
        .map(|(n, t)| t - due_s(n, rate))
        .collect();
    let origin = offsets.iter().copied().fold(f64::INFINITY, f64::min);
    offsets.into_iter().map(|o| o - origin).collect()
}

/// Share of an open loop's schedule that was actually offered.
pub fn offered_frac(offered: usize, rate: f64, seconds: f64) -> f64 {
    offered as f64 / (rate * seconds).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_the_sorted_sample() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let s = sorted(&mut v);
        assert_eq!(percentile(s, 0.0), 1.0);
        assert_eq!(percentile(s, 0.5), 3.0);
        assert_eq!(percentile(s, 0.9), 5.0); // round(4 * 0.9) = 4
        assert_eq!(percentile(s, 1.0), 5.0);
        // Even count: round(3 * 0.5) = 2 → the upper middle.
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [7.0]), 7.0);
        // 101 samples 0..=100: p90 is exactly 90.
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(12), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn schedule_and_lateness() {
        assert_eq!(due_s(0, 100.0), 0.0);
        assert_eq!(due_s(250, 100.0), 2.5);
        // At 100/s from an origin of 2.0: the first starts 3 ms after the
        // origin, the second is on time, the third 5 ms late.
        let late = lateness_s(&[2.003, 2.010, 2.025], 100.0);
        assert!((late[0] - 0.003).abs() < 1e-12);
        assert_eq!(late[1], 0.0);
        assert!((late[2] - 0.005).abs() < 1e-12);
        assert!(lateness_s(&[], 100.0).is_empty());
        assert_eq!(offered_frac(990, 1000.0, 1.0), 0.99);
    }
}
