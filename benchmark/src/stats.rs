//! Order statistics the benchmark reports: interpolated percentiles,
//! Python-compatible quartiles (for the `--repeat` spread check), and
//! segment medians for throughput.

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// slice; 0.0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted slice; 0.0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Median, p95, maximum and count of a latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        count: s.len(),
        p50: percentile(&s, 50.0),
        p95: percentile(&s, 95.0),
        max: s.last().copied().unwrap_or(0.0),
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the driver judges run-to-run spread with that
/// function, so `--repeat` must agree with it digit for digit.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Number of equal segments a phase is cut into for throughput.
pub const SEGMENTS: usize = 5;

/// `items` cut into [`SEGMENTS`] equal consecutive parts (fewer when
/// there are fewer items; none when there are none).
pub fn segments<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let n = SEGMENTS.min(items.len());
    (0..n).map(move |s| &items[s * items.len() / n..(s + 1) * items.len() / n])
}

/// Throughput as the median over [`SEGMENTS`] equal-count segments of
/// a phase: each op contributes `units` of work (1 per read, the op
/// count per publish) and `seconds` of client time; a segment's rate is
/// its units over its seconds. The median of segments rather than the
/// phase total keeps one checkpoint or compaction stall from moving
/// the number.
pub fn segment_rate(ops: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = segments(ops)
        .map(|seg| {
            let units: f64 = seg.iter().map(|o| o.0).sum();
            let seconds: f64 = seg.iter().map(|o| o.1).sum();
            units / seconds.max(1e-12)
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.8], n=4)
        let (q1, med, q3) = quartiles(&[3.1, 2.9, 3.0, 3.4, 2.8]);
        assert!((q1 - 2.85).abs() < 1e-12);
        assert!((med - 3.0).abs() < 1e-12);
        assert!((q3 - 3.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn segment_rate_ignores_one_slow_segment() {
        // 10 ops of 1 unit in 1 s each, except two stalls in segment 0
        let mut ops = vec![(1.0, 1.0); 10];
        ops[0].1 = 50.0;
        ops[1].1 = 50.0;
        assert_eq!(segment_rate(&ops), 1.0);
        assert_eq!(segment_rate(&[]), 0.0);
        // fewer ops than segments still works
        assert_eq!(segment_rate(&[(12.0, 0.5)]), 24.0);
    }

    #[test]
    fn summarize_reports_count_and_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(summarize(&[]), Summary::default());
    }
}
