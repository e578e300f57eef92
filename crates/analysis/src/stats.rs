//! Small statistics helpers.

/// Result of an ordinary least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Ordinary least squares over `(x, y)` pairs.
///
/// # Panics
///
/// Panics with fewer than two points or zero x-variance.
pub fn linear_fit(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let (mut sx, mut sy) = (0.0, 0.0);
    for &(x, y) in points {
        sx += x;
        sy += y;
    }
    let (mx, my) = (sx / n, sy / n);
    let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
    for &(x, y) in points {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "x values are all identical");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LineFit {
        slope,
        intercept,
        r2,
    }
}

/// Mean and (population) standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Max/min ratio of a positive series — the load-imbalance factor used in
/// the Figure 7 discussion (1.0 = perfectly balanced).
///
/// # Panics
///
/// Panics on an empty series or a non-positive minimum.
pub fn imbalance(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "imbalance of an empty series");
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(min > 0.0, "imbalance requires positive loads");
    max / min
}

/// Max/mean ratio of a non-negative series — how far the busiest rank
/// sits above the average (1.0 = balanced; a mean of 0 gives NaN).
pub fn max_over_mean(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max / mean_std(values).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = linear_fit(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)];
        let fit = linear_fit(&pts);
        assert!(fit.r2 < 1.0);
        assert!(fit.slope > 0.0);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn single_point_panics() {
        let _ = linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn imbalance_ratio() {
        assert!((imbalance(&[1.0, 2.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((imbalance(&[3.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_over_mean_ratio() {
        assert!((max_over_mean(&[0.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((max_over_mean(&[3.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
