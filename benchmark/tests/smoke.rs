//! `--quick` smoke of the benchmark binary: tiny sizes, about a minute in
//! total (some sixty runs of a second each).
//!
//! One test function, so the runs (which share `benchmark/out`) happen one
//! after the other.

use eraser::netlist::json::{self, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_eraser-benchmark");

fn bench(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn last_line(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a run prints its result");
    json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

struct Declared {
    name: String,
    unit: String,
}

fn declared(manifest: &JsonValue, list: &str) -> Vec<Declared> {
    manifest
        .get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{list}`"))
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
            unit: m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
        })
        .collect()
}

/// One quick run; asserts the result line's shape against the manifest
/// and returns its metrics object.
fn quick_run(workload: &str, trace: &str, decls: &[Declared]) -> JsonValue {
    let output = bench(&[
        "--workload",
        workload,
        "--quick",
        "--seconds",
        "0.2",
        "--seed",
        "5",
        "--trace",
        trace,
    ]);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = last_line(&output);
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    let metrics = result.get("metrics").unwrap().clone();
    // The parser rejects duplicate keys, so equal key lists mean every
    // declared metric is there exactly once and nothing else is.
    let expected: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(keys(&metrics), expected, "{workload} trace {trace}");
    for d in decls {
        let m = metrics.get(&d.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"], "{}", d.name);
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(d.unit.as_str()),
            "{}",
            d.name
        );
        let value = m
            .get("value")
            .and_then(JsonValue::as_num)
            .expect("a number");
        assert!(value.is_finite() && value >= 0.0, "{} = {value}", d.name);
    }
    metrics
}

#[test]
fn quick_smoke() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let manifest =
        json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);

    for d in end_to_end.iter().chain(&per_layer) {
        assert!(
            d.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name `{}`",
            d.name
        );
    }

    for w in &workloads {
        // End to end: every metric, never zero.
        let metrics = quick_run(w, "0", &end_to_end);
        for d in &end_to_end {
            let value = metrics
                .get(&d.name)
                .unwrap()
                .get("value")
                .and_then(JsonValue::as_num)
                .unwrap();
            assert!(value > 0.0, "{w}: {} is {value}", d.name);
        }
        // Per layer, twice: every count repeats exactly.
        let first = quick_run(w, "1", &per_layer);
        let second = quick_run(w, "1", &per_layer);
        for d in per_layer.iter().filter(|d| d.unit == "count") {
            assert_eq!(
                first.get(&d.name),
                second.get(&d.name),
                "{w}: {} does not repeat",
                d.name
            );
        }
        let trace = root.join(format!("benchmark/out/trace-{w}.json"));
        let spans = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!spans.as_arr().unwrap().is_empty(), "{w}: empty trace");
    }

    // A deliberately flipped detection record trips the digest check: one
    // failed operation, `correct` false, nonzero exit, metrics still there.
    let output = bench(&[
        "--workload",
        "rtl_heavy",
        "--quick",
        "--seconds",
        "0.1",
        "--flip-one",
    ]);
    assert!(!output.status.success());
    let result = last_line(&output);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(keys(result.get("metrics").unwrap()).len(), end_to_end.len());

    // The whole-benchmark command and `compare`.
    let out = root.join("benchmark/out");
    let (a, b, c) = (
        out.join("smoke-a.json"),
        out.join("smoke-b.json"),
        out.join("smoke-c.json"),
    );
    for (file, seed, runs) in [(&a, "5", "2"), (&b, "5", "2"), (&c, "6", "1")] {
        let output = bench(&[
            "all",
            "--quick",
            "--seconds",
            "0.1",
            "--runs",
            runs,
            "--seed",
            seed,
            "--out",
            file.to_str().unwrap(),
        ]);
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let same_seed = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&same_seed.stdout);
    assert_eq!(
        table.lines().count(),
        1 + workloads.len() * end_to_end.len(),
        "{table}"
    );
    for line in table.lines().skip(1) {
        assert!(
            ["better", "same", "worse", "unresolved"]
                .iter()
                .any(|v| line.contains(v)),
            "{line}"
        );
    }
    let other_seed = bench(&["compare", a.to_str().unwrap(), c.to_str().unwrap()]);
    assert_eq!(other_seed.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&other_seed.stderr).contains("`seed` differs"));
}
