//! Order statistics for latency samples.

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie strictly above a reported percentile.
pub const MIN_ABOVE: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1), reported only when at least
/// [`MIN_ABOVE`] samples rank above it: a tail figure resting on fewer
/// samples is noise, not a measurement.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let above = n - rank;
    (above >= MIN_ABOVE).then(|| v[rank - 1])
}

/// Fewest samples for which [`tail_percentile`] reports p90.
pub fn min_samples_for_p90() -> usize {
    (1..)
        .find(|&n| tail_percentile(&vec![0.0; n], 0.9).is_some())
        .expect("finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_above_it() {
        assert_eq!(min_samples_for_p90(), 100);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        let above = v.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(above, MIN_ABOVE);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
