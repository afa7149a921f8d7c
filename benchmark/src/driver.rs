//! The whole-benchmark command (every workload, untraced then traced,
//! each in its own process so peak memory is per workload), the results
//! file it writes, and `compare` over two such files.

use crate::metrics::{median, quartiles, MetricDecl, END_TO_END, PER_LAYER, VERSION};
use crate::workloads::{sizes_fingerprint, WORKLOADS};
use crate::{host, Cli};
use eraser::netlist::json::{self, JsonValue};
use std::process::{Command, ExitCode};

/// Re-executes this binary for one run, passes its metric table through
/// and returns the parsed result line.
fn child_run(cli: &Cli, workload: &str, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &cli.opts.seed.to_string(),
        "--seconds",
        &cli.opts.seconds.to_string(),
    ]);
    if cli.opts.quick {
        cmd.arg("--quick");
    }
    if cli.opts.verify {
        cmd.arg("--verify");
    }
    // stderr is inherited: failures name their campaign as they happen.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout.trim_end().rsplit_once('\n').ok_or_else(|| {
        format!(
            "the {workload} run printed no result (exit {})",
            output.status
        )
    })?;
    println!("{table}");
    json::parse(last)
        .map_err(|e| format!("the {workload} run's last line is not JSON ({e}): {last}"))
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// Every workload `--runs` times untraced and once traced; prints every
/// metric by name with its unit and writes the results file.
pub fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        for (trace, count) in [(false, cli.runs), (true, 1)] {
            for _ in 0..count {
                let result = child_run(cli, w.name, trace)?;
                let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
                let attempted = result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                let failed = result
                    .get("failed")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(attempted);
                all_correct &= correct && failed == 0;
                println!(
                    "# {failed} of {attempted} operations failed{}",
                    if correct { "" } else { " -- INCORRECT" }
                );
                runs.push(JsonValue::Obj(vec![
                    ("workload".into(), JsonValue::str(w.name)),
                    ("trace".into(), JsonValue::Bool(trace)),
                    ("result".into(), result),
                ]));
            }
        }
    }
    let file = JsonValue::Obj(vec![
        ("version".into(), JsonValue::num(VERSION)),
        ("seed".into(), JsonValue::num(cli.opts.seed)),
        ("seconds".into(), JsonValue::Num(cli.opts.seconds)),
        (
            "sizes".into(),
            JsonValue::str(sizes_fingerprint(cli.opts.quick)),
        ),
        ("host".into(), host::describe()),
        ("runs".into(), JsonValue::Arr(runs)),
    ]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| host::out_dir().join("results.json").display().to_string());
    std::fs::write(&path, json::to_string_pretty(&file))
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("# results written to {path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload with IFsim verification at seed 1 and rewrites
/// `benchmark/golden.json` from the verified digests.
pub fn write_golden(cli: &Cli) -> Result<ExitCode, String> {
    let opts = crate::RunOpts {
        seed: 1,
        seconds: 0.1,
        trace: false,
        quick: false,
        verify: true,
        flip_one: false,
    };
    let mut digests = Vec::new();
    for w in WORKLOADS {
        let outcome = crate::run_workload(w.name, &opts)?;
        if !outcome.correct {
            return Err(format!(
                "{}: verification failed; golden.json left untouched",
                w.name
            ));
        }
        digests.extend(outcome.references);
    }
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/golden.json".to_string());
    let text = crate::digest::render_golden(opts.seed, &sizes_fingerprint(false), &digests);
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "{} digests written to {path}; rebuild to compile them in",
        digests.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// How long one run measures, in `/BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

/// `/BENCHMARK.json`, rendered from the workload and metric tables.
pub fn manifest() -> String {
    let strings =
        |items: &[&str]| JsonValue::Arr(items.iter().map(|s| JsonValue::str(*s)).collect());
    let metric = |d: &MetricDecl| {
        let mut fields = vec![
            ("name".to_string(), JsonValue::str(d.name)),
            ("unit".to_string(), JsonValue::str(d.unit)),
            (
                "better".to_string(),
                JsonValue::str(if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ),
        ];
        if let Some(bound) = d.bound {
            fields.push(("bound".to_string(), JsonValue::Num(bound)));
        }
        JsonValue::Obj(fields)
    };
    let mut text = json::to_string_pretty(&JsonValue::Obj(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strings(&["benchmark"])),
        ("run_seconds".into(), JsonValue::num(RUN_SECONDS)),
        (
            "workloads".into(),
            JsonValue::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        JsonValue::Obj(vec![
                            ("name".into(), JsonValue::str(w.name)),
                            ("why".into(), JsonValue::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            JsonValue::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            JsonValue::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ]));
    text.push('\n');
    text
}

struct ResultsFile {
    header: Vec<(String, String)>,
    runs: Vec<(String, JsonValue)>,
}

fn load(path: &str) -> Result<ResultsFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let header = ["version", "seed", "seconds", "sizes"]
        .iter()
        .map(|k| {
            let value = v.get(k).ok_or_else(|| format!("{path}: missing `{k}`"))?;
            Ok((k.to_string(), json::to_string(value)))
        })
        .collect::<Result<_, String>>()?;
    let runs = v
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{path}: missing `runs`"))?
        .iter()
        .filter(|r| r.get("trace").and_then(JsonValue::as_bool) == Some(false))
        .filter_map(|r| {
            Some((
                r.get("workload")?.as_str()?.to_string(),
                r.get("result")?.clone(),
            ))
        })
        .collect();
    Ok(ResultsFile { header, runs })
}

/// The verdict on one end-to-end metric of one workload, B against A.
fn verdict(decl: &MetricDecl, a: &[f64], b: &[f64]) -> &'static str {
    let bound = decl.bound.expect("end-to-end metrics carry a bound");
    // Orient both sides so that larger is worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|x| if decl.higher_is_better { -x } else { *x })
            .collect()
    };
    let (a, b) = (orient(a), orient(b));
    let (med_a, med_b) = (median(&a), median(&b));
    let spread = |v: &[f64], med: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / med.abs()
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    if spread(&a, med_a) > bound || spread(&b, med_b) > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        return if max(&b) < min(&a) {
            "better"
        } else if min(&b) > max(&a) {
            "worse"
        } else {
            "unresolved"
        };
    }
    let change = (med_b - med_a) / med_a.abs();
    if change > bound {
        "worse"
    } else if change < -bound {
        "better"
    } else {
        "same"
    }
}

/// Prints, per end-to-end metric and workload, whether B is better, the
/// same, worse or unresolved against A under the metric's bound. Exits
/// nonzero on any `worse` or `unresolved`.
pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for ((key, va), (_, vb)) in a.header.iter().zip(&b.header) {
        if va != vb {
            return Err(format!(
                "refusing to compare: `{key}` differs ({va} vs {vb})"
            ));
        }
    }
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8}  verdict (bound)",
        "workload", "metric", "A median", "B median", "change"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let side = |f: &ResultsFile| -> Vec<f64> {
                f.runs
                    .iter()
                    .filter(|(name, _)| name == w.name)
                    .filter_map(|(_, r)| metric_value(r, d.name))
                    .collect()
            };
            let (va, vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {}: missing on one side", w.name, d.name));
            }
            let v = verdict(d, &va, &vb);
            clean &= v == "same" || v == "better";
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<20} {ma:>14.6} {mb:>14.6} {:>+7.1}%  {v} ({:.0}%, n={}/{})",
                w.name,
                d.name,
                (mb - ma) / ma * 100.0,
                d.bound.unwrap_or(0.0) * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> MetricDecl {
        MetricDecl {
            name: "m",
            unit: "s",
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&decl(false), &a, &[1.03, 1.02, 1.04, 1.03, 1.05]),
            "same"
        );
        assert_eq!(
            verdict(&decl(false), &a, &[1.20, 1.21, 1.19, 1.22, 1.20]),
            "worse"
        );
        assert_eq!(
            verdict(&decl(false), &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            "better"
        );
        // A throughput: the same numbers read the other way round.
        assert_eq!(
            verdict(&decl(true), &a, &[1.20, 1.21, 1.19, 1.22, 1.20]),
            "better"
        );
        assert_eq!(
            verdict(&decl(true), &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            "worse"
        );
        // Quartile range wider than the bound: not callable...
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.25];
        assert_eq!(verdict(&decl(false), &a, &noisy), "unresolved");
        // ...unless every B run is beyond every A run.
        assert_eq!(
            verdict(&decl(false), &a, &[2.0, 2.6, 3.2, 2.2, 3.0]),
            "worse"
        );
    }
}
