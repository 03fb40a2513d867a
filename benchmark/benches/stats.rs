//! Order statistics over run samples.

/// The samples sorted ascending (NaNs last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does with its default "exclusive"
/// method. `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that keeps at
/// least ten samples above it, as `(percentile, nearest-rank value)`;
/// `None` with fewer than twenty samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .map(|p| {
            let rank = (p * n / 100.0 - 1e-9).ceil().max(1.0) as usize;
            (p, v[rank - 1])
        })
}

/// Geometric mean of the positive values (0 when there are none).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .filter(|x| *x > 0.0)
        .fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).expect("quartiles");
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).expect("quartiles");
        assert!(close(q1, 1.5) && close(q3, 12.0), "{q1} {q3}");
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let (q1, q3) = quartiles(&[7.0, 5.0]).expect("quartiles");
        assert!(close(q1, 4.5) && close(q3, 7.5), "{q1} {q3}");
        assert!(quartiles(&[1.0]).is_none());
        assert!(close(rel_iqr(&xs), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert!(tail(&[1.0; 19]).is_none());
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn geomean_ignores_non_positive() {
        assert!(close(geomean([1.0, 4.0]), 2.0));
        assert!(close(geomean([2.0, 0.0, 8.0]), 4.0));
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
