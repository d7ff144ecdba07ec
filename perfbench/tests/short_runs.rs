//! The benchmark's own tests: a short run of every workload prints every
//! metric of `BENCHMARK.json` with its unit, finite, with every check
//! passing; `BENCHMARK.json` re-parses and matches the metric catalogue
//! the binary carries.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["paper-ramp", "plan-sine", "fabric-chaos"];

fn committed_manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark binary; returns (exit success, stdout lines).
fn run(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

fn names<'a>(manifest: &'a Value, list: &str) -> Vec<(&'a str, &'a str)> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).expect("name"),
                m.get("unit").and_then(Value::as_str).expect("unit"),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn manifest_reparses_matches_the_catalogue_and_keeps_the_limits() {
    let committed = committed_manifest();
    let (ok, lines) = run(&["--manifest"]);
    assert!(ok);
    let generated: Value = serde_json::from_str(&lines.join("\n")).expect("--manifest parses");
    assert_eq!(
        committed, generated,
        "BENCHMARK.json is stale: regenerate with --manifest"
    );

    let keys: Vec<&String> = committed.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let run_seconds = committed
        .get("run_seconds")
        .and_then(Value::as_u64)
        .unwrap();
    assert!((1..=60).contains(&run_seconds));
    let workloads = committed
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            !why.contains('\n') && why.len() <= 200,
            "why too long: {why}"
        );
    }
    let mut seen = std::collections::BTreeSet::new();
    for list in ["end_to_end", "per_layer"] {
        for m in committed.get(list).and_then(Value::as_array).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            assert!(
                is_name(name) && seen.insert(name.to_string()),
                "bad name {name}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
            if list == "end_to_end" {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25);
            } else {
                assert!(m.get("bound").is_none());
            }
        }
    }
    assert!(names(&committed, "end_to_end").contains(&("setup_s", "s")));
}

/// The fingerprint of the run's simulated-time outputs from the `meta:`
/// line.
fn fingerprint(lines: &[String]) -> String {
    let meta = lines
        .iter()
        .find_map(|l| l.strip_prefix("meta: "))
        .expect("a meta line");
    let meta: Value = serde_json::from_str(meta).expect("meta parses");
    for key in [
        "git_rev",
        "nproc",
        "rustc",
        "seed",
        "evaluator_workers",
        "repetitions",
    ] {
        assert!(meta.get(key).is_some(), "meta lacks {key}");
    }
    meta.get("fingerprint")
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_string()
}

fn short_run(workload: &str) {
    let manifest = committed_manifest();
    let mut prints = Vec::new();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, lines) = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "{workload} --trace {trace} failed: {lines:?}");
        let result: Value = serde_json::from_str(lines.last().expect("output")).expect("JSON");
        let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{lines:?}");
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
        let expected = names(&manifest, list);
        assert_eq!(metrics.len(), expected.len(), "{workload}: {metrics:?}");
        for (name, unit) in expected {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        prints.push(fingerprint(&lines));
    }
    // Tracing is inert: the traced run simulates exactly what the
    // untraced one does.
    assert_eq!(prints[0], prints[1], "{workload}: traced run differs");
}

#[test]
fn short_paper_ramp() {
    short_run("paper-ramp");
}

#[test]
fn short_plan_sine() {
    short_run("plan-sine");
}

#[test]
fn short_fabric_chaos() {
    short_run("fabric-chaos");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "paper-ramp", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "paper-ramp",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let (ok, lines) = run(args);
        assert!(!ok && lines.is_empty(), "{args:?}");
    }
}
