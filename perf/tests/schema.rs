//! The shapes other tools read: the report's JSON, `BENCHMARK.json`,
//! metric names, and the release profile the layer timings are built
//! with.

use pa_perf::json::Json;
use pa_perf::report::{self, Host, NoiseRow, WorkloadReport};
use pa_perf::spec::{self, Better};
use pa_perf::stats::Summary;
use pa_perf::workloads::Outcome;
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn json_round_trips_values_escapes_and_nesting() {
    let doc = Json::obj([
        ("text", Json::str("tab\t quote\" slash\\ newline\n unit µs")),
        ("whole", Json::Num(12345678.0)),
        ("fraction", Json::Num(0.000123456789)),
        ("negative", Json::Num(-2.5e-7)),
        (
            "flags",
            Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
        ),
        ("empty", Json::obj::<&str>([])),
        ("nested", Json::obj([("list", Json::Arr(vec![]))])),
    ]);
    assert_eq!(Json::parse(&doc.encode()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    assert!(
        !doc.encode().contains('\n'),
        "the result line must be one line"
    );
    assert!(Json::parse("{\"a\": 1} x").is_err());
    assert!(Json::parse("{\"a\": }").is_err());
    assert!(Json::parse("[1, 2").is_err());
}

#[test]
fn report_schema_round_trips() {
    let w = &spec::WORKLOADS[1];
    let mut outcome = Outcome {
        attempted: 33,
        ..Outcome::default()
    };
    outcome.metrics.push((
        "edges_per_s",
        Summary {
            median: 6.01e6,
            q1: 5.5e6,
            q3: 6.7e6,
            n: 7,
        },
    ));
    outcome.seal();
    let reports = vec![WorkloadReport {
        workload: w,
        argv: w.command(w.n, false, 7, "out.bin", "store"),
        end_to_end: outcome,
        per_layer: vec![
            ("engine3.memo_hit_ratio", 0.2501),
            ("trace.overhead_share", -0.01),
        ],
        layer_ops: Some((4, 0)),
    }];
    let host = Host {
        git_rev: "80d777f".into(),
        rustc: "rustc 1.95.0".into(),
        nproc: 2,
        scratch_fs: "tmpfs".into(),
        seed: 7,
        smoke: false,
    };
    let noise = vec![NoiseRow {
        workload: w.name,
        metric: "edges_per_s",
        first: 6.0e6,
        second: 5.9e6,
        worse_by: 1.0 / 60.0,
        bound: 0.1,
        ok: true,
    }];
    let doc = report::to_json(&host, &reports, &noise);
    let back = Json::parse(&doc.pretty()).unwrap();
    assert_eq!(back, doc);

    assert_eq!(
        back.get("schema").and_then(Json::as_f64),
        Some(f64::from(report::SCHEMA_VERSION))
    );
    for key in [
        "git_rev",
        "rustc",
        "nproc",
        "ranks",
        "scratch_fs",
        "seed",
        "smoke",
    ] {
        assert!(back.get(key).is_some(), "missing {key}");
    }
    let wl = &back.get("workloads").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(wl.get("name").and_then(Json::as_str), Some("gen-e3-mpsim"));
    assert_eq!(wl.get("attempted").and_then(Json::as_f64), Some(33.0));
    let rate = wl
        .get("end_to_end")
        .and_then(|m| m.get("edges_per_s"))
        .unwrap();
    for (key, want) in [("median", 6.01e6), ("q1", 5.5e6), ("q3", 6.7e6), ("n", 7.0)] {
        assert_eq!(rate.get(key).and_then(Json::as_f64), Some(want));
    }
    assert_eq!(rate.get("unit").and_then(Json::as_str), Some("edges/s"));
    let share = wl
        .get("end_to_end")
        .and_then(|m| m.get("failed_share"))
        .unwrap();
    assert_eq!(share.get("median").and_then(Json::as_f64), Some(0.0));
    let hit = wl
        .get("per_layer")
        .and_then(|m| m.get("engine3.memo_hit_ratio"))
        .unwrap();
    assert_eq!(hit.get("value").and_then(Json::as_f64), Some(0.2501));
    let row = &back.get("noise_floor").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(row.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn every_name_and_unit_fits_the_contract() {
    let mut seen = std::collections::BTreeSet::new();
    let names = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|l| l.name));
    for name in names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    let units = spec::END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(spec::PER_LAYER.iter().map(|l| l.unit));
    for unit in units {
        assert!(valid_unit(unit), "bad unit {unit:?}");
    }
    for w in &spec::WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!(spec::PER_LAYER.len() <= 128);
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= 0.25));
    // Every layer metric is measured somewhere, and names its layer.
    for layer in spec::PER_LAYER {
        assert_ne!(layer.on, 0, "{} is measured nowhere", layer.name);
        assert!(
            layer.name.contains('.'),
            "{} has no layer prefix",
            layer.name
        );
        assert!(!layer.moves.is_empty());
    }
}

/// What `BENCHMARK.json` must say, derived from the tables in `spec`.
fn expected_benchmark_json() -> Json {
    let better = |b: Better| Json::str(b.name());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "perf/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Num(spec::DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                spec::contract_end_to_end()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", better(l.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[test]
fn benchmark_json_restates_the_spec_tables() {
    let expected = expected_benchmark_json();
    let text = repo_file("BENCHMARK.json");
    assert!(
        text.len() <= 64 << 10,
        "BENCHMARK.json is {} bytes",
        text.len()
    );
    let actual = Json::parse(&text).expect("BENCHMARK.json parses");
    assert!(
        actual == expected,
        "BENCHMARK.json is out of step with perf/src/spec.rs; it should read:\n{}",
        expected.pretty()
    );
    // The contract's own rules, on what the driver will read.
    let e2e = actual.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is mandatory");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let bounds: Vec<f64> = e2e
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let largest = bounds.iter().cloned().fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest),
        "setup_s gets the largest bound"
    );
    let seconds = actual.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

/// The lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_root_workspace() {
    let root = release_profile(&repo_file("Cargo.toml"));
    let ours = release_profile(&repo_file("perf/Cargo.toml"));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release]"
    );
    assert_eq!(ours, root, "layer timings must measure the code users run");
}
