//! Order statistics: the quartiles must be the ones Python's
//! `statistics.quantiles(xs, n=4)` gives, since that is what the driver
//! computes its spreads from.

use pa_perf::stats::{median, percentile, quartiles, summarize, tail_percentile, worsening};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    // Two samples: the outer cuts extrapolate, as Python's do.
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    let (q1, q2, q3) = quartiles(&[10.5, 9.1, 12.2, 11.0, 9.9]);
    assert!((q1 - 9.5).abs() < 1e-12 && (q2 - 10.5).abs() < 1e-12 && (q3 - 11.6).abs() < 1e-12);
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
}

#[test]
fn summary_carries_median_quartiles_and_count() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = summarize(&ten);
    assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    // p90 leaves a tenth of the samples beyond it: 100 samples are the
    // fewest that put ten there.
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn nearest_rank_percentile() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), 90.0);
    assert_eq!(percentile(&hundred, 50.0), 50.0);
    assert_eq!(percentile(&hundred, 100.0), 100.0);
    assert_eq!(percentile(&[5.0], 90.0), 5.0);
}

#[test]
fn worsening_is_signed_by_direction() {
    // Throughput falling 10% and latency rising 10% are both +0.1.
    assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
    assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    assert!(worsening(100.0, 110.0, true) < 0.0);
}
