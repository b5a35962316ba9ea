//! The benchmark against its own definition in `BENCHMARK.json`: valid
//! names, the same metric lists the code reports, and — by running the
//! built binary on every workload in both modes — every listed metric
//! actually emitted on the result line.

use evobench::report::{valid_name, END_TO_END, PER_LAYER};
use evobench::Workload;
use serde::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Value, key: &str) -> Vec<&'a Value> {
    match v.get(key) {
        Some(Value::Seq(items)) => items.iter().collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
    entries(v, key)
        .into_iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_name_is_valid_and_used_once() {
    let v = benchmark_json();
    let mut names: Vec<String> = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for e in entries(&v, key) {
            let name = field(e, "name");
            assert!(valid_name(name), "{key}: invalid name {name:?}");
            names.push(name.to_string());
        }
    }
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "a name is used twice: {names:?}");
}

#[test]
fn metric_lists_match_what_the_code_reports() {
    let v = benchmark_json();
    assert_eq!(listed(&v, "end_to_end"), registry(END_TO_END));
    assert_eq!(listed(&v, "per_layer"), registry(PER_LAYER));
}

#[test]
fn bounds_and_directions_are_within_the_contract() {
    let v = benchmark_json();
    for m in entries(&v, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    for m in entries(&v, "end_to_end")
        .into_iter()
        .chain(entries(&v, "per_layer"))
    {
        assert!(matches!(field(m, "better"), "lower" | "higher"), "{m:?}");
    }
    let setup = entries(&v, "end_to_end")
        .into_iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is listed");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    let largest = entries(&v, "end_to_end")
        .into_iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
}

#[test]
fn workloads_are_the_ones_the_binary_runs() {
    let v = benchmark_json();
    for w in entries(&v, "workloads") {
        let name = field(w, "name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

/// Run the binary and return its result line's metric names.
fn emitted(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_evobench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let line: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(
        line.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{stdout}"
    );
    match line.get("metrics") {
        Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every workload for a full deck; run with `cargo test --release`"
)]
fn the_command_emits_every_listed_metric_on_every_workload() {
    let v = benchmark_json();
    let names = |key| -> Vec<String> { listed(&v, key).into_iter().map(|(n, _)| n).collect() };
    for w in entries(&v, "workloads") {
        let workload = field(w, "name");
        assert_eq!(
            emitted(workload, false),
            names("end_to_end"),
            "{workload} timed"
        );
        assert_eq!(
            emitted(workload, true),
            names("per_layer"),
            "{workload} traced"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result_line() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
        vec!["--workload", "audit", "--seconds", "1"],
        vec!["--workload", "audit", "--seed", "1", "--seconds", "0"],
        vec![
            "--workload",
            "audit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_evobench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
