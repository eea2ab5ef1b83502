//! Order statistics shared by the run, the trace and `compare`.

/// Ceil-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `0` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = v.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Splits `[0, total_ns)` into `windows` equal spans and returns each
/// span's completion rate in ops per second. `ends_ns` are op completion
/// times relative to the start of the measured phase, in any order.
pub fn window_rates(ends_ns: &[u64], total_ns: u64, windows: usize) -> Vec<f64> {
    if total_ns == 0 || windows == 0 {
        return Vec::new();
    }
    let mut counts = vec![0u64; windows];
    for &end in ends_ns {
        let w = (end as u128 * windows as u128 / total_ns as u128) as usize;
        counts[w.min(windows - 1)] += 1;
    }
    let window_s = total_ns as f64 / windows as f64 / 1e9;
    counts.iter().map(|&c| c as f64 / window_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_ceil_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 51.0), 6);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(relative_iqr(&v), 1.0);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // 10 windows of 1 s; nine complete 100 ops, one completes 10.
        let mut ends = Vec::new();
        for w in 0..10u64 {
            let n = if w == 4 { 10 } else { 100 };
            for i in 0..n {
                ends.push(w * 1_000_000_000 + i * 1_000);
            }
        }
        let rates = window_rates(&ends, 10_000_000_000, 10);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[4], 10.0);
        assert_eq!(median(&rates), 100.0);
        // A completion exactly at the end lands in the last window.
        assert_eq!(window_rates(&[10], 10, 2), vec![0.0, 2e8]);
    }
}
