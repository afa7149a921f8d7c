//! The repo benchmark: five campaign workloads measured from outside the
//! product, end to end (tracing off) and layer by layer (tracing on),
//! every campaign's result checked against a reference.
//!
//! ```text
//! eraser-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! eraser-benchmark [all] [--seed N] [--seconds S] [--runs R] [--out FILE]   every workload, untraced then traced
//! eraser-benchmark compare A.json B.json                               two result files against the bounds
//! eraser-benchmark write-golden                                        regenerate golden.json (seed 1, IFsim-verified)
//! eraser-benchmark manifest                                            print /BENCHMARK.json from the tables
//! ```
//!
//! `--verify` recomputes the references through the serial IFsim baseline
//! even at seed 1; `--quick` uses the smoke test's tiny sizes. See
//! `benchmark/README.md`.

mod calib;
mod digest;
mod driver;
mod engine;
mod host;
mod metrics;
mod service;
mod trace;
mod workloads;

use eraser::netlist::json::{self, JsonValue};
use std::process::ExitCode;

/// The options of one run of one workload.
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end).
    pub trace: bool,
    pub quick: bool,
    pub verify: bool,
    /// Self-test: report the first campaign's result with one detection
    /// record moved, which the digest check must catch.
    pub flip_one: bool,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: metrics::Metrics,
    /// Resolved configurations, sample counts, digests: the side file.
    pub details: JsonValue,
    /// `(golden key, verified digest)` of every campaign of the workload.
    pub references: Vec<(String, u64)>,
}

const USAGE: &str = "usage: eraser-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--verify]
       eraser-benchmark [all] [--seed N] [--seconds S] [--runs R] [--quick] [--verify] [--out FILE]
       eraser-benchmark compare A.json B.json
       eraser-benchmark write-golden
       eraser-benchmark manifest";

pub struct Cli {
    pub workload: Option<String>,
    pub opts: RunOpts,
    pub runs: usize,
    pub out: Option<String>,
    pub positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
            verify: false,
            flip_one: false,
        },
        runs: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.opts.seed = number("--seed", value("--seed")?)?,
            "--seconds" => cli.opts.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => cli.opts.trace = number::<u8>("--trace", value("--trace")?)? != 0,
            "--runs" => cli.runs = number::<usize>("--runs", value("--runs")?)?.max(1),
            "--out" => cli.out = Some(value("--out")?),
            "--quick" => cli.opts.quick = true,
            "--verify" => cli.opts.verify = true,
            "--flip-one" => cli.opts.flip_one = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if !(cli.opts.seconds.is_finite() && cli.opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// Runs one workload in this process. Prints every metric by name with
/// its unit, then the result object as the last line.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    if name == workloads::SERVICE_MIX {
        service::run(opts)
    } else {
        engine::run(workload, opts)
    }
}

fn single_run(name: &str, opts: &RunOpts) -> Result<ExitCode, String> {
    let outcome = run_workload(name, opts)?;
    let decls = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let values = outcome.metrics.to_json(decls);
    let side = JsonValue::Obj(vec![
        ("version".into(), JsonValue::num(metrics::VERSION)),
        ("trace".into(), JsonValue::Bool(opts.trace)),
        ("seconds".into(), JsonValue::Num(opts.seconds)),
        ("quick".into(), JsonValue::Bool(opts.quick)),
        ("host".into(), host::describe()),
        ("details".into(), outcome.details.clone()),
        ("metrics".into(), values.clone()),
    ]);
    let path = host::out_dir().join(format!("run-{name}-trace{}.json", u8::from(opts.trace)));
    std::fs::write(&path, json::to_string_pretty(&side))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!(
        "# {name} seed {} trace {} ({})",
        opts.seed,
        u8::from(opts.trace),
        path.display()
    );
    for d in decls {
        match outcome.metrics.get(d.name) {
            Some(v) if d.unit == "count" || d.unit == "B" => {
                println!("{:<32} {v:>16.0} {}", d.name, d.unit)
            }
            Some(v) if v != 0.0 && v.abs() < 1e-3 => {
                println!("{:<32} {v:>16.3e} {}", d.name, d.unit)
            }
            Some(v) => println!("{:<32} {v:>16.6} {}", d.name, d.unit),
            None => {}
        }
    }
    println!(
        "{}",
        metrics::result_line(outcome.correct, outcome.attempted, outcome.failed, values)
    );
    Ok(if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = host::enter_repo_root().and_then(|()| {
        let cli = parse_cli(&args)?;
        match (
            cli.workload.as_deref(),
            cli.positional.first().map(String::as_str),
        ) {
            (Some(name), None) => single_run(name, &cli.opts),
            (None, None | Some("all")) => driver::run_all(&cli),
            (None, Some("compare")) => match &cli.positional[1..] {
                [a, b] => driver::compare(a, b),
                _ => Err("compare needs two result files".into()),
            },
            (None, Some("write-golden")) => driver::write_golden(&cli),
            (None, Some("manifest")) => {
                print!("{}", driver::manifest());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("unexpected arguments".into()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `/BENCHMARK.json` is the driver's view of the tables in
    /// `metrics.rs` and `workloads.rs`; regenerate it with
    /// `eraser-benchmark manifest > BENCHMARK.json`.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
        assert_eq!(committed, crate::driver::manifest());
    }
}
