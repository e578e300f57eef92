//! Strong- and weak-scaling series (Figures 5 and 6) from each rank's
//! measured on-CPU nanoseconds `W_r` (`RankOutput::cpu_ns`). `W_r`
//! excludes time spent waiting for a core, so `W(1) / max_r W_r(P)`
//! bounds the speedup on `P` dedicated cores for any `P`, whatever the
//! host's core count. With `P` far above it, shared caches and waiting
//! ranks' receive polls inflate `W_r` and the bound is conservative.

/// Nanoseconds per second.
const NS: f64 = 1e9;

/// Largest entry of a non-empty `W_r` vector.
fn max_ns(cpu_ns: &[u64]) -> u64 {
    *cpu_ns.iter().max().expect("a run has at least one rank")
}

/// One row of a strong-scaling table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrongPoint {
    /// The busiest rank's on-CPU seconds, `max_r W_r`.
    pub cpu_max_s: f64,
    /// On-CPU seconds summed over ranks: the run's total work.
    pub cpu_sum_s: f64,
    /// Speedup bound `W(1) / max_r W_r` on `nranks` dedicated cores.
    pub speedup_bound: f64,
    /// Parallel efficiency `speedup_bound / nranks`.
    pub efficiency: f64,
}

/// Build a strong-scaling point from one run's `W_r` vector against the
/// single-rank run's on-CPU nanoseconds `base_ns`.
///
/// # Panics
///
/// Panics if `cpu_ns` is empty.
pub fn strong_point(base_ns: u64, cpu_ns: &[u64]) -> StrongPoint {
    let max = max_ns(cpu_ns);
    let speedup_bound = base_ns as f64 / max as f64;
    StrongPoint {
        cpu_max_s: max as f64 / NS,
        cpu_sum_s: cpu_ns.iter().sum::<u64>() as f64 / NS,
        speedup_bound,
        efficiency: speedup_bound / cpu_ns.len() as f64,
    }
}

/// One row of a weak-scaling table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakPoint {
    /// Rank count.
    pub nranks: usize,
    /// The busiest rank's on-CPU seconds.
    pub cpu_max_s: f64,
    /// `max_r W_r` over the first run's (1.0 = perfect weak scaling).
    pub normalized: f64,
}

/// Build a weak-scaling series from the `W_r` vectors of runs whose
/// per-rank problem size was held constant, in sweep order.
///
/// # Panics
///
/// Panics if `runs` or any run in it is empty.
pub fn weak_series(runs: &[Vec<u64>]) -> Vec<WeakPoint> {
    assert!(!runs.is_empty(), "weak series needs at least one run");
    let base = max_ns(&runs[0]) as f64;
    runs.iter()
        .map(|cpu_ns| {
            let max = max_ns(cpu_ns) as f64;
            WeakPoint {
                nranks: cpu_ns.len(),
                cpu_max_s: max / NS,
                normalized: max / base,
            }
        })
        .collect()
}

/// Render a simple aligned text table (harness output helper).
///
/// `headers.len()` must equal the width of every row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn strong_point_on_balanced_loads() {
        // Work conserved and split evenly: the bound is P.
        let p = strong_point(800 * MS, &[200 * MS; 4]);
        assert!((p.speedup_bound - 4.0).abs() < 1e-12);
        assert!((p.efficiency - 1.0).abs() < 1e-12);
        assert!((p.cpu_max_s - 0.2).abs() < 1e-12);
        assert!((p.cpu_sum_s - 0.8).abs() < 1e-12);
    }

    #[test]
    fn strong_point_reflects_imbalance() {
        // One hot rank: the bound is ΣW / max, whatever P is.
        let w = [500 * MS, 100 * MS, 100 * MS, 100 * MS];
        let p = strong_point(w.iter().sum(), &w);
        assert!((p.speedup_bound - 800.0 / 500.0).abs() < 1e-12);
        assert!(p.efficiency < 0.5);
    }

    #[test]
    fn balanced_world_speeds_up_linearly() {
        // Fixed total work split evenly over P ranks: the bound tracks P.
        // 720 720 = lcm(1..=16), so every split is exact.
        let total = 720_720 * MS;
        for nranks in 1..=16u64 {
            let p = strong_point(total, &vec![total / nranks; nranks as usize]);
            assert!(
                (p.speedup_bound - nranks as f64).abs() < 1e-9,
                "P = {nranks}: {p:?}"
            );
            assert!((p.efficiency - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn imbalance_caps_speedup() {
        // One rank holds 70% of the work: however many ranks share the
        // rest, the bound stays at 1 / 0.7.
        for nranks in 2..=8u64 {
            let mut w = vec![300 * MS / (nranks - 1); nranks as usize - 1];
            w.push(700 * MS);
            let p = strong_point(1000 * MS, &w);
            assert!(
                (p.speedup_bound - 1000.0 / 700.0).abs() < 1e-12,
                "P = {nranks}: {p:?}"
            );
        }
    }

    #[test]
    fn strong_point_shows_total_work_growth() {
        // Ranks that do more work in sum than the single rank did lower
        // the bound even when perfectly balanced.
        let p = strong_point(800 * MS, &[300 * MS; 4]);
        assert!((p.speedup_bound - 800.0 / 300.0).abs() < 1e-12);
        assert!((p.cpu_sum_s - 1.2).abs() < 1e-12);
    }

    #[test]
    fn weak_series_normalizes_to_first_run() {
        let runs = vec![
            vec![100 * MS],
            vec![100 * MS, 90 * MS],
            vec![110 * MS, 100 * MS, 100 * MS, 100 * MS], // 10% degradation
        ];
        let series = weak_series(&runs);
        assert_eq!(series[0].normalized, 1.0);
        assert_eq!(series[1].normalized, 1.0);
        assert_eq!(series[2].nranks, 4);
        assert!((series[2].normalized - 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_panics() {
        let _ = strong_point(1, &[]);
    }

    proptest! {
        /// With work conserved (ΣW_r = W(1)), the bound lies in [1, P].
        #[test]
        fn speedup_bounded_by_p(split in prop::collection::vec(1u64..100_000, 1..32)) {
            let p = strong_point(split.iter().sum(), &split);
            prop_assert!(p.speedup_bound <= split.len() as f64 + 1e-9);
            prop_assert!(p.speedup_bound >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["P", "speedup"],
            &[
                vec!["1".into(), "1.00".into()],
                vec!["16".into(), "14.91".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("speedup"));
        assert!(lines[3].trim_start().starts_with("16"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
