//! Sample arithmetic: medians, quartiles and the tail-percentile rule.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three cut points that split `samples` into quarters, computed as
/// Python's `statistics.quantiles(samples, n=4)` does (the default
/// "exclusive" method), so spreads printed here match the ones an outside
/// script computes from the same values. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The quartile spread of `samples` as a share of their median:
/// `(q3 − q1) / median`. `None` below two samples or for a zero median.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let mid = median(samples)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// The percentiles a timing may be reported at, highest last.
const PERCENTILES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`PERCENTILES`] that has at least ten
/// samples beyond it, with its nearest-rank value: `(p, value)`. `None`
/// when the sample is too small for any of them (fewer than 100
/// samples), in which case only the median is reported.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let n = data.len();
    PERCENTILES.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_SAMPLES).then(|| (p, data[rank - 1]))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates past the sample.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_iqr(&ten).expect("ten samples");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&small), None);
        // 100 samples: p90 has 10 beyond it, p95 only 5.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond it, p99.9 only 1.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }
}
