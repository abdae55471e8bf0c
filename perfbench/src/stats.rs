//! Order statistics shared by every workload.
//!
//! Two definitions are used on purpose. Latency percentiles use the
//! nearest-rank rule (`percentile`), which always returns an observed
//! value. Run-to-run spreads use the quartiles of Python's
//! `statistics.quantiles(values, n=4)` (`quartiles`), so the spread this
//! benchmark prints is the spread Python recomputes from the same
//! numbers.

/// Nearest-rank percentile of `values`: the element at 1-based rank
/// `ceil(p · n)` of the ascending sort. `p` is clamped to `[0, 1]`.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as Python's `statistics.median`: the middle element, or the
/// mean of the two middle elements for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First, second and third quartile by Python's default
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// Returns `None` for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are checked against. `None` when it is undefined
/// (fewer than two values, or a zero median).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(5.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn helpers_are_deterministic_and_order_free() {
        let v = [0.31, 0.27, 0.29, 0.35, 0.26, 0.30, 0.28, 0.33, 0.32, 0.34];
        let mut rev = v;
        rev.reverse();
        assert_eq!(quartiles(&v), quartiles(&rev));
        assert_eq!(percentile(&v, 0.9), percentile(&rev, 0.9));
        assert_eq!(relative_spread(&v), relative_spread(&rev));
        let s = relative_spread(&v).expect("defined");
        assert_eq!(Some(s), relative_spread(&v));
        assert!(s > 0.0 && s < 1.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
