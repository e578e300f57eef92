//! Runs the real thing: `pa-perf --smoke` builds the root binaries, runs
//! every workload at n = 20 000 through both passes, and must report
//! every end-to-end metric with nothing failed.

use pa_perf::json::Json;
use pa_perf::spec;
use std::process::Command;

#[test]
fn smoke_run_reports_every_end_to_end_metric_with_nothing_failed() {
    let out = std::env::temp_dir().join(format!("pa-perf-smoke-{}.json", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_pa-perf"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run pa-perf");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "pa-perf --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report =
        Json::parse(&std::fs::read_to_string(&out).expect("the report was written")).unwrap();
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(out.with_file_name("trace.json"));

    assert_eq!(report.get("smoke"), Some(&Json::Bool(true)));
    let workloads = report.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (w, got) in spec::WORKLOADS.iter().zip(workloads) {
        assert_eq!(got.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(
            got.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert_eq!(
            got.get("per_layer_failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        let e2e = got.get("end_to_end").unwrap();
        for m in &spec::END_TO_END {
            let defined = !m.serve_only || w.name == "serve-mixed";
            let value = e2e
                .get(m.name)
                .and_then(|s| s.get("median"))
                .and_then(Json::as_f64);
            match (defined, value) {
                (true, Some(v)) if m.name == "failed_share" => assert_eq!(v, 0.0, "{}", w.name),
                (true, Some(v)) => assert!(v > 0.0, "{} on {} is {v}", m.name, w.name),
                (true, None) => panic!("{} is missing on {}", m.name, w.name),
                (false, v) => assert_eq!(v, None, "{} is not defined on {}", m.name, w.name),
            }
            assert!(stdout.contains(m.name), "{} is not printed", m.name);
        }
        // Each layer metric appears exactly on the workloads it names.
        let layers = got.get("per_layer").unwrap();
        for layer in spec::PER_LAYER {
            let on = layer.on & spec::bit(w) != 0;
            assert_eq!(
                layers.get(layer.name).is_some(),
                on,
                "{} on {}",
                layer.name,
                w.name
            );
        }
    }
}
