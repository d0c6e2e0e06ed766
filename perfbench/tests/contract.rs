//! The benchmark's own tests: a tiny-size run of every workload prints
//! every metric `BENCHMARK.json` names, with its unit, as the last line's
//! result object; and a perturbed reference is counted as a failure.

use cc_serve::control::{parse_json, JsonValue};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["engine-resnet20-b4", "bands2-lenet-b4", "serve-lenet-open"];

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let trace_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/perfbench-traces");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--size",
            "tiny",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--trace-dir",
            trace_dir,
        ])
        .args(extra)
        .output()
        .expect("benchmark runs")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

#[test]
fn workloads_list_matches() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn tiny_runs_print_every_declared_metric() {
    for workload in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            let r = result(&out);
            assert_eq!(r.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
            assert_eq!(
                r.get("failed").and_then(JsonValue::as_usize),
                Some(0),
                "{workload}"
            );
            assert!(
                r.get("attempted")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0)
                    > 0,
                "{workload}"
            );
            let metrics = r.get("metrics").expect("metrics");
            let JsonValue::Object(members) = metrics else {
                panic!("metrics is an object")
            };
            let expected = declared(list);
            assert_eq!(
                members.len(),
                expected.len(),
                "{workload} {list}: exactly the declared metrics"
            );
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{workload}: {name} value"
                );
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn perturbed_reference_is_a_failure() {
    for workload in ["bands2-lenet-b4", "serve-lenet-open"] {
        let out = run(workload, false, &["--perturb-reference"]);
        assert!(
            !out.status.success(),
            "{workload}: a mismatch must fail the run"
        );
        let r = result(&out);
        assert_eq!(
            r.get("correct"),
            Some(&JsonValue::Bool(false)),
            "{workload}"
        );
        assert!(
            r.get("failed").and_then(JsonValue::as_usize).unwrap_or(0) > 0,
            "{workload}"
        );
    }
}
