//! `eraser` — command-line RTL fault simulation and the campaign server.
//!
//! Two modes:
//!
//! * **Run** (default): load a design — a Verilog-subset file, a
//!   Yosys-JSON netlist (`.json`, the output of
//!   `yosys -p 'prep; write_json design.json'`), or a `--spec` campaign
//!   file naming a benchmark/fixture/path — generate per-bit stuck-at
//!   faults, run an ERASER campaign, and print coverage plus the
//!   redundancy breakdown.
//! * **Serve**: `eraser serve` starts the HTTP/JSON campaign service
//!   (`POST /campaigns`, `GET /campaigns/:id`, `GET /campaigns/:id/result`,
//!   `GET /healthz`) with a bounded job queue, a worker pool, and a
//!   pluggable result store (`--store mem` or `--store journal:PATH`).
//!
//! ```text
//! eraser <file.v|file.json> [flags]     run a file design
//! eraser --spec FILE.json [flags]       run a campaign spec
//! eraser serve [--addr A] [--workers N] [--queue N] [--store S]
//! ```
//!
//! Every knob of a run resolves through one precedence rule, lowest to
//! highest: built-in default < CLI flag < explicit spec field. The spec
//! is the single carrier: flags merge into fields the spec file left
//! unset ([`merge_flags`]) and the pure [`CampaignSpec::resolve`]
//! supplies the built-in defaults. Nothing reads the environment: a
//! spec, POSTed to `serve` or given to a run, determines its campaign by
//! itself.
//!
//! Errors are uniform: every failure prints one `error: ...` line to
//! stderr; usage mistakes (unknown flag, missing value, bad number) exit
//! 2 with the usage text, runtime failures (unreadable file, import
//! error, bad spec) exit 1.

use eraser::core::{run_campaign, CampaignSpec, RedundancyMode};
use eraser::netlist::json;
use eraser::service::{open_store, prepare_spec, CampaignService, HttpServer};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: eraser <file.v|file.json> [--top NAME] [--cycles|--stimulus-steps N] [--clock NAME] [--reset NAME]
              [--mode full|explicit|none] [--max-faults N] [--seed N] [--list-undetected]
              [--threads N] [--batch] [--collapse]
       eraser --spec FILE.json [same flags; the spec's explicit fields win]
       eraser serve [--addr HOST:PORT] [--workers N] [--queue N] [--store mem|journal:PATH]";

/// Writes one line of the report to stdout. A reader that closed the pipe
/// early (`eraser … | head`) wanted no more of it, so that ends the
/// process quietly with success; any other write error is a runtime
/// failure.
fn say(line: std::fmt::Arguments) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write the report: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`say`].
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

/// A usage mistake: `error:` line, usage text, exit 2.
fn fail_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// CLI knob flags, all optional — merged into the campaign spec with
/// lower precedence than the spec file's own fields.
#[derive(Default)]
struct Flags {
    top: Option<String>,
    clock: Option<String>,
    reset: Option<String>,
    steps: Option<usize>,
    seed: Option<u64>,
    mode: Option<RedundancyMode>,
    max_faults: Option<usize>,
    threads: Option<usize>,
    batch: bool,
    collapse: bool,
    list_undetected: bool,
}

fn need(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
}

fn need_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let text = need(flag, value);
    text.parse()
        .unwrap_or_else(|_| fail_usage(&format!("{flag}: `{text}` is not a valid number")))
}

fn parse_enum<T>(flag: &str, value: Option<String>) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let text = need(flag, value);
    text.parse()
        .unwrap_or_else(|e: T::Err| fail_usage(&e.to_string()))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve(args);
    }

    let mut flags = Flags::default();
    let mut file: Option<String> = None;
    let mut spec_file: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_file = Some(need("--spec", it.next())),
            "--top" => flags.top = Some(need("--top", it.next())),
            "--clock" => flags.clock = Some(need("--clock", it.next())),
            "--reset" => flags.reset = Some(need("--reset", it.next())),
            "--cycles" | "--stimulus-steps" => flags.steps = Some(need_num(&arg, it.next())),
            "--seed" => flags.seed = Some(need_num("--seed", it.next())),
            "--mode" => flags.mode = Some(parse_enum("--mode", it.next())),
            "--max-faults" => flags.max_faults = Some(need_num("--max-faults", it.next())),
            "--threads" => flags.threads = Some(need_num("--threads", it.next())),
            "--batch" => flags.batch = true,
            "--collapse" => flags.collapse = true,
            "--list-undetected" => flags.list_undetected = true,
            "--help" | "-h" => {
                say!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if !arg.starts_with('-') && file.is_none() => file = Some(arg),
            _ => fail_usage(&format!("unknown argument `{arg}`")),
        }
    }

    let (mut spec, explicit_keys) = match load_spec(file, spec_file) {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    merge_flags(&mut spec, &explicit_keys, &flags);
    let checked = spec.validate().map_err(|e| e.to_string());
    match checked.and_then(|()| run(&spec, flags.list_undetected)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Loads the campaign spec — from `--spec`, or a fresh one over a
/// positional design file — with the keys the spec file set explicitly:
/// those outrank flags even for the spec's non-optional fields (seed,
/// mode, ...).
fn load_spec(
    file: Option<String>,
    spec_file: Option<String>,
) -> Result<(CampaignSpec, Vec<String>), String> {
    match (spec_file, file) {
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_spec(&text).map_err(|e| format!("{path}: {e}"))
        }
        (None, Some(path)) => Ok((CampaignSpec::path(path), Vec::new())),
        (Some(_), Some(_)) => Err("give either a design file or --spec, not both".to_string()),
        (None, None) => fail_usage("no design file or --spec given"),
    }
}

/// A spec file's text as the spec plus its top-level keys.
fn parse_spec(text: &str) -> Result<(CampaignSpec, Vec<String>), String> {
    let value = json::parse(text).map_err(|e| format!("invalid campaign spec: {e}"))?;
    let spec = CampaignSpec::from_json_value(&value).map_err(|e| e.to_string())?;
    let keys = value
        .as_obj()
        .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    Ok((spec, keys))
}

/// Writes each given flag into the spec field the spec file left unset.
fn merge_flags(spec: &mut CampaignSpec, explicit_keys: &[String], flags: &Flags) {
    let unset = |key: &str| !explicit_keys.iter().any(|k| k == key);
    if flags.top.is_some() && unset("top") {
        spec.top = flags.top.clone();
    }
    if flags.clock.is_some() && unset("clock") {
        spec.clock = flags.clock.clone();
    }
    if flags.reset.is_some() && unset("reset") {
        spec.reset = flags.reset.clone();
    }
    if let (Some(seed), true) = (flags.seed, unset("seed")) {
        spec.seed = seed;
    }
    if flags.steps.is_some() && unset("steps") {
        spec.steps = flags.steps;
    }
    if let (Some(mode), true) = (flags.mode, unset("mode")) {
        spec.mode = mode;
    }
    if flags.max_faults.is_some() && unset("max_faults") {
        spec.max_faults = flags.max_faults;
    }
    if flags.threads.is_some() && unset("threads") {
        spec.threads = flags.threads;
    }
    if flags.batch && unset("batch") {
        spec.batch = Some(true);
    }
    if flags.collapse && unset("collapse") {
        spec.collapse = Some(true);
    }
}

/// Runs one campaign from a resolved spec and prints the report.
fn run(spec: &CampaignSpec, list_undetected: bool) -> Result<(), String> {
    // One resolution rule for benchmark names, fixtures, and files —
    // shared with the campaign service's workers.
    let prep = prepare_spec(spec)?;
    let design = prep.source.design();
    let config = spec.resolve();

    say!(
        "{}: {} signals, {} RTL nodes, {} behavioral nodes, {} faults, {} steps",
        design.name(),
        design.num_signals(),
        design.rtl_nodes().len(),
        design.behavioral_nodes().len(),
        prep.faults.len(),
        prep.stimulus.steps.len(),
    );
    if config.parallel.is_parallel() {
        say!("parallel: {}", config.parallel);
    }
    if config.batch.enabled {
        say!("batching: 64-wide bit-parallel RTL evaluation");
    }
    if config.collapse.enabled {
        say!("collapsing: static equivalence folding before simulation");
    }
    let result = run_campaign(design, &prep.faults, &prep.stimulus, &config);
    say!("mode {}: coverage {}", config.mode, result.coverage);
    let s = &result.stats;
    say!(
        "behavioral: {} activations, {} faulty executions of {} opportunities",
        s.good_activations,
        s.fault_executions,
        s.opportunities
    );
    say!(
        "eliminated: {} explicit ({:.1}%), {} implicit ({:.1}%)",
        s.explicit_skipped,
        s.explicit_percent(),
        s.implicit_skipped,
        s.implicit_percent()
    );
    if config.batch.enabled {
        let occupancy = if s.batch_groups > 0 {
            100.0 * s.batch_lanes as f64 / (s.batch_groups * 64) as f64
        } else {
            0.0
        };
        say!(
            "batch: {} groups at {:.1}% lane occupancy, {} scalar fallbacks",
            s.batch_groups,
            occupancy,
            s.batch_scalar_fallbacks
        );
    }
    if config.collapse.enabled {
        say!(
            "collapse: {} classes simulated for {} faults ({} folded, {} dropped as undetectable)",
            s.collapse_classes,
            prep.faults.len(),
            s.collapsed_faults,
            s.collapse_dropped
        );
    }
    if list_undetected {
        for id in result.coverage.undetected() {
            let f = prep.faults.fault(id);
            say!(
                "undetected: {} bit {} {}",
                design.signal(f.signal).name,
                f.bit,
                f.stuck
            );
        }
    }
    Ok(())
}

/// The `serve` subcommand: start the campaign service and block.
fn serve(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:3939".to_string();
    let mut workers: usize = 2;
    let mut queue: usize = 64;
    let mut store_sel = "mem".to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = need("--addr", it.next()),
            "--workers" => workers = need_num("--workers", it.next()),
            "--queue" => queue = need_num("--queue", it.next()),
            "--store" => store_sel = need("--store", it.next()),
            "--help" | "-h" => {
                say!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => fail_usage(&format!("unknown argument `{arg}`")),
        }
    }
    let store = match open_store(&store_sel) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = CampaignService::new(store, workers, queue);
    let server = match HttpServer::bind(&addr, service.handle()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    say!(
        "eraser service listening on http://{} ({} workers, queue {}, store {})",
        server.local_addr(),
        workers,
        queue,
        store_sel
    );
    // Serve until killed: the accept loop and workers run on their own
    // threads; this thread just sleeps.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI's whole merge, on a spec file's text.
    fn merged(spec_text: &str, flags: &Flags) -> CampaignSpec {
        let (mut spec, keys) = parse_spec(spec_text).unwrap();
        merge_flags(&mut spec, &keys, flags);
        spec
    }

    #[test]
    fn precedence_is_default_then_flag_then_spec_key() {
        let bare = r#"{"design": {"benchmark": "APB"}}"#;
        let keyed = r#"{"design": {"benchmark": "APB"}, "threads": 3, "eval": "tree",
                        "checkpoint_interval": 0, "batch": false}"#;
        let flags = Flags {
            threads: Some(2),
            batch: true,
            collapse: true,
            ..Flags::default()
        };

        // Nothing given anywhere: the built-in defaults.
        let cfg = merged(bare, &Flags::default()).resolve();
        assert_eq!(cfg.parallel.threads, 1);
        assert!(!cfg.checkpoint.is_enabled() && !cfg.batch.enabled && !cfg.collapse.enabled);

        // A flag beats the default.
        let cfg = merged(bare, &flags).resolve();
        assert_eq!(cfg.parallel.threads, 2);
        assert!(cfg.batch.enabled && cfg.collapse.enabled);

        // A spec key beats the flag; knobs the spec leaves unset keep it.
        let cfg = merged(keyed, &flags).resolve();
        assert_eq!(cfg.parallel.threads, 3);
        assert!(!cfg.batch.enabled && cfg.collapse.enabled);
    }
}
