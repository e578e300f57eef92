//! Order statistics for the report: median, quartiles and the
//! percentile rule of the choosing-metrics guide.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a single observation (counts, one-shot timings).
    pub fn single(v: f64) -> Self {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (exclusive method), so a spread
/// printed here is the spread the driver computes. Fewer than two
/// samples have no spread: all three cuts are the sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Past a clamp, delta leaves [0, 4] and the cut extrapolates —
        // as CPython (3.10 and later) does.
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median, quartiles and count of `xs`.
pub fn summarize(xs: &[f64]) -> Summary {
    let (q1, _, q3) = quartiles(xs);
    Summary {
        median: median(xs),
        q1,
        q3,
        n: xs.len(),
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile of the ladder 90/95/99/99.9 that still has at
/// least ten samples beyond it, or `None` below 100 samples — the
/// guide's rule for which tail a sample count can support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// `(b − a) / a` signed so that positive means *worse*, given which
/// direction is better.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let rel = (second - first) / first.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    s
}
