//! Self-check of the benchmark: every workload at `ci-small` size, untraced
//! and traced, must pass its oracle checks and print every metric that
//! `BENCHMARK.json` names, with its unit, plus the input record.

use cla_serve::json::{parse, Value};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark and returns its record line and result line.
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selfcheck-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cla-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "small"])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    let record = parse(lines[lines.len() - 2]).expect("record line parses");
    let result = parse(lines[lines.len() - 1]).expect("result line parses");
    assert!(
        !dir.join(".perfbench_work").exists(),
        "{workload}: scratch inputs left behind"
    );
    (record, result)
}

fn check(workload: &str) {
    for trace in [0u8, 1] {
        let (record, result) = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
        let want = declared(if trace == 0 {
            "end_to_end"
        } else {
            "per_layer"
        });
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload} trace {trace}: metric count"
        );
        for (name, unit) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                matches!(m.get("value"), Some(Value::Num(_))),
                "{name} has no numeric value"
            );
        }
        if trace == 0 {
            // End-to-end metrics are never 0.
            for (name, m) in metrics {
                let value = m.get("value");
                assert!(
                    matches!(value, Some(Value::Num(v)) if *v > 0.0),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
        if trace == 1 && workload.starts_with("million") {
            // Demand loading reads part of the file: the solve's own
            // loading, not the oracle's full decode.
            let ratio = metrics["cladb.load.assigns_loaded_ratio"].get("value");
            assert!(
                matches!(ratio, Some(Value::Num(v)) if *v > 0.0 && *v < 1.0),
                "{workload}: assigns_loaded_ratio {ratio:?}"
            );
        }
        let record = record.get("record").and_then(Value::as_obj).unwrap();
        for key in [
            "seed",
            "tree_hash",
            "loc",
            "files",
            "assignments",
            "relations",
            "nproc",
            "threads",
            "connections",
            "jobs",
            "git_rev",
        ] {
            assert!(record.contains_key(key), "{workload}: record lacks {key}");
        }
        // The workload's own figures, by name and unit.
        let named = record
            .get("workload_metrics")
            .and_then(Value::as_obj)
            .unwrap();
        let want: &[(&str, &str)] = match (workload, trace) {
            ("million-cold", 0) => &[("cold_s", "s"), ("peak_rss_mb", "MB")],
            ("million-cold", _) => &[("cold_serial_s", "s")],
            ("million-analyze", 0) => &[("analyze_s", "s"), ("peak_rss_mb", "MB")],
            ("million-analyze", _) => &[("analyze_s", "s")],
            (_, 0) => &[
                ("query_p50_ms", "ms"),
                ("query_p99_ms", "ms"),
                ("throughput_qps", "1/s"),
                ("reload_p50_ms", "ms"),
                ("peak_rss_mb", "MB"),
            ],
            _ => &[],
        };
        for (name, unit) in want.iter().chain(&[("failed_frac", "frac")]) {
            let m = named
                .get(*name)
                .unwrap_or_else(|| panic!("{workload}: no {name} in the record"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        }
    }
}

#[test]
fn million_cold() {
    check("million-cold");
}

#[test]
fn million_analyze() {
    check("million-analyze");
}

#[test]
fn hub_skewed() {
    check("hub-skewed");
}
