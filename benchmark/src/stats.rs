//! Order statistics: the median, the percentile rule, and the quartiles the
//! acceptance procedure uses.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0.5, 1)`, refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie beyond it — so p90 needs 100 samples.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize; // 1-based
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // 24 whole sequences never support a p90.
        assert_eq!(tail_percentile(&v[..24], 0.9), None);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
