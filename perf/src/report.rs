//! The run's outputs: a table on stdout and one JSON document.

use crate::json::Json;
use crate::layers::Values;
use crate::spec::{self, Better, EndToEnd, Workload};
use crate::stats::{worsening, Summary};
use crate::workloads::Outcome;

/// Version of the report's JSON shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything measured on one workload.
pub struct WorkloadReport {
    pub workload: &'static Workload,
    /// The command line the programs saw (empty for `serve-mixed`).
    pub argv: Vec<String>,
    pub end_to_end: Outcome,
    /// Per-layer values; empty when the pass was not run.
    pub per_layer: Values,
    /// Operations of the per-layer pass.
    pub layer_ops: Option<(u64, u64)>,
}

/// Where and on what the run happened.
pub struct Host {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub scratch_fs: String,
    pub seed: u64,
    pub smoke: bool,
}

/// One line of `--check-repeat`: a metric's median in two back-to-back
/// sets of the same build.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// Relative difference, positive = the second set is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Is `second` a regression of `first` under `m`'s bound? A difference
/// inside the metric's resolution floor never is.
pub fn within_bound(m: &EndToEnd, first: f64, second: f64) -> (f64, bool) {
    if first == 0.0 {
        // Only failed_share is expected to be 0: any increase is worse.
        return (second, second <= first);
    }
    let worse_by = worsening(first, second, m.better == Better::Higher);
    let ok = worse_by <= m.bound || (second - first).abs() <= m.abs_floor;
    (worse_by, ok)
}

/// Compare two sets of end-to-end outcomes metric by metric.
pub fn noise_floor(first: &[WorkloadReport], second: &[Outcome]) -> Vec<NoiseRow> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for m in &spec::END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.get(m.name), b.get(m.name)) else {
                continue;
            };
            let (worse_by, ok) = within_bound(m, x.median, y.median);
            rows.push(NoiseRow {
                workload: a.workload.name,
                metric: m.name,
                first: x.median,
                second: y.median,
                worse_by,
                bound: m.bound,
                ok,
            });
        }
    }
    rows
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
    ])
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The whole report as JSON.
pub fn to_json(host: &Host, workloads: &[WorkloadReport], noise: &[NoiseRow]) -> Json {
    let workloads = workloads.iter().map(|r| {
        let e2e = r
            .end_to_end
            .metrics
            .iter()
            .map(|(name, s)| (*name, summary_json(s, unit_of(name))));
        let layers = r.per_layer.iter().map(|(name, v)| {
            (
                *name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit_of(name)))]),
            )
        });
        let mut fields = vec![
            ("name", Json::str(r.workload.name)),
            ("why", Json::str(r.workload.why)),
            ("args", Json::Arr(r.argv.iter().map(Json::str).collect())),
            ("attempted", Json::Num(r.end_to_end.attempted as f64)),
            ("failed", Json::Num(r.end_to_end.failed as f64)),
            (
                "failures",
                Json::Arr(r.end_to_end.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
        ];
        if let Some((attempted, failed)) = r.layer_ops {
            fields.push(("per_layer_attempted", Json::Num(attempted as f64)));
            fields.push(("per_layer_failed", Json::Num(failed as f64)));
        }
        Json::obj(fields)
    });
    let noise = noise.iter().map(|row| {
        Json::obj([
            ("workload", Json::str(row.workload)),
            ("metric", Json::str(row.metric)),
            ("first", Json::Num(row.first)),
            ("second", Json::Num(row.second)),
            ("worse_by", Json::Num(row.worse_by)),
            ("bound", Json::Num(row.bound)),
            ("ok", Json::Bool(row.ok)),
        ])
    });
    Json::obj([
        ("schema", Json::Num(f64::from(SCHEMA_VERSION))),
        ("git_rev", Json::str(&host.git_rev)),
        ("rustc", Json::str(&host.rustc)),
        ("nproc", Json::Num(host.nproc as f64)),
        ("ranks", Json::Num(spec::RANKS as f64)),
        ("scratch_fs", Json::str(&host.scratch_fs)),
        ("seed", Json::Num(host.seed as f64)),
        ("smoke", Json::Bool(host.smoke)),
        ("workloads", Json::Arr(workloads.collect())),
        ("noise_floor", Json::Arr(noise.collect())),
    ])
}

/// Six significant digits, no exponent games for the usual ranges.
fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Print one workload's end-to-end metrics.
pub fn print_end_to_end(w: &Workload, out: &Outcome) {
    println!("\n== {} — end to end (tracing off) ==", w.name);
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for (name, s) in &out.metrics {
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>4}  {}",
            name,
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            s.n,
            unit_of(name)
        );
    }
    println!(
        "operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for why in &out.failures {
        println!("  FAILED {why}");
    }
}

/// Print one workload's per-layer metrics, with how each was taken.
pub fn print_per_layer(w: &Workload, values: &Values) {
    println!("\n== {} — per layer (traced pass) ==", w.name);
    println!("{:<38} {:>14}  {:<10} kind", "metric", "value", "unit");
    for layer in spec::PER_LAYER {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == layer.name) {
            println!(
                "{:<38} {:>14}  {:<10} {}",
                layer.name,
                fmt(*v),
                layer.unit,
                layer.kind.name()
            );
        }
    }
}

/// Print the `--check-repeat` table.
pub fn print_noise(rows: &[NoiseRow]) {
    println!("\n== noise floor: two end-to-end sets of the same build ==");
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<18} {:>14} {:>14} {:>8.2}% {:>6.0}% {}",
            r.workload,
            r.metric,
            fmt(r.first),
            fmt(r.second),
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.ok { "" } else { "EXCEEDS" }
        );
    }
}
