//! CLI error-handling contract: every failure path exits nonzero with a
//! consistent `error:` line on stderr — exit 2 for usage errors (plus the
//! usage text), exit 1 for runtime failures — and a well-formed run exits
//! zero.

use std::process::{Command, Output};

fn eraser(args: &[&str]) -> Output {
    eraser_with_env(args, &[])
}

/// Runs the binary with `vars` set in the child only — the test process's
/// environment is never touched.
fn eraser_with_env(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eraser"))
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("spawn eraser binary")
}

/// Writes a spec file unique to `tag` and this process.
fn spec_file(tag: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("eraser-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Usage errors (exit 2) always carry the `error:` prefix and the usage
/// text so the caller sees what a valid invocation looks like. `needle`
/// must be on the `error:` line itself, not only in the usage text.
fn assert_usage_error(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.starts_with("error:"), "stderr: {err}");
    let first_line = err.lines().next().unwrap_or_default();
    assert!(first_line.contains(needle), "stderr: {err}");
    assert!(err.contains("usage:"), "usage text missing: {err}");
}

/// Runtime failures (exit 1) carry the `error:` prefix but no usage dump
/// — the invocation was fine, the inputs were not.
fn assert_runtime_error(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(err.contains(needle), "stderr: {err}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&eraser(&["--nonsense"]), "--nonsense");
    // The removed `--eval` flag: the spec key `eval` is read by no engine.
    assert_usage_error(&eraser(&["--eval", "tape"]), "unknown argument `--eval`");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    assert_usage_error(&eraser(&["--threads"]), "--threads");
    assert_usage_error(&eraser(&["x.v", "--cycles"]), "--cycles needs a value");
}

#[test]
fn non_numeric_flag_value_is_a_usage_error() {
    assert_usage_error(&eraser(&["--threads", "many"]), "--threads");
    assert_usage_error(&eraser(&["x.v", "--cycles", "many"]), "--cycles: `many`");
}

#[test]
fn bad_redundancy_mode_is_a_usage_error() {
    assert_usage_error(&eraser(&["--mode", "sideways"]), "unknown redundancy mode");
}

#[test]
fn no_input_at_all_is_a_usage_error() {
    assert_usage_error(&eraser(&[]), "no design file");
}

#[test]
fn missing_design_file_is_a_runtime_error() {
    assert_runtime_error(&eraser(&["/no/such/design.v"]), "/no/such/design.v");
}

#[test]
fn unreadable_spec_file_is_a_runtime_error() {
    assert_runtime_error(
        &eraser(&["--spec", "/no/such/spec.json"]),
        "/no/such/spec.json",
    );
}

#[test]
fn bad_spec_key_is_a_runtime_error_naming_the_key() {
    let path = spec_file("badspec", r#"{"design": {"benchmark": "APB"}, "sede": 3}"#);
    let out = eraser(&["--spec", path.to_str().unwrap()]);
    assert_runtime_error(&out, "sede");
    let _ = std::fs::remove_file(&path);
}

/// A size no host should be asked for is refused before anything is
/// allocated, whether it came from the spec file or from a flag.
#[test]
fn oversized_spec_is_a_runtime_error_naming_the_key() {
    let path = spec_file(
        "toolong",
        r#"{"design": {"benchmark": "APB"}, "steps": 1000000000000}"#,
    );
    let out = eraser(&["--spec", path.to_str().unwrap()]);
    assert_runtime_error(&out, "key `steps`");
    let _ = std::fs::remove_file(&path);

    let path = spec_file(
        "toowide",
        r#"{"design": {"benchmark": "APB"}, "steps": 10}"#,
    );
    let out = eraser(&["--spec", path.to_str().unwrap(), "--threads", "100000"]);
    assert_runtime_error(&out, "key `threads`");
    let _ = std::fs::remove_file(&path);

    // One good-state snapshot per settle step of 100 000 cycles.
    let path = spec_file(
        "toomanysnaps",
        r#"{"design": {"benchmark": "APB"}, "steps": 100000, "checkpoint_interval": 1}"#,
    );
    let out = eraser(&["--spec", path.to_str().unwrap()]);
    assert_runtime_error(&out, "key `checkpoint_interval`");
    assert_eq!(stderr(&out).lines().count(), 1, "{}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

/// The partition-strategy knob is gone, and says so the same way at every
/// edge: the flag is an unknown argument, the spec key an unknown key, and
/// the variable is not read at all — not even to reject it. The same goes
/// for the five variables that used to sit under the flags: set to
/// garbage, the run still exits 0 under the default config.
#[test]
fn removed_partition_knob_fails_loudly_or_is_ignored() {
    assert_usage_error(
        &eraser(&["--partition", "round-robin"]),
        "unknown argument `--partition`",
    );
    let keyed = spec_file(
        "partitionkey",
        r#"{"design": {"benchmark": "APB"}, "steps": 10, "partition": "round-robin"}"#,
    );
    assert_runtime_error(
        &eraser(&["--spec", keyed.to_str().unwrap()]),
        "unknown key `partition`",
    );
    let _ = std::fs::remove_file(&keyed);
    let bare = spec_file(
        "partitionenv",
        r#"{"design": {"benchmark": "APB"}, "steps": 10}"#,
    );
    let args = ["--spec", bare.to_str().unwrap()];
    let retired = [
        ("ERASER_PARTITION", "typo"),
        ("ERASER_THREADS", "x"),
        ("ERASER_EVAL", "tap"),
        ("ERASER_CKPT", "nope"),
        ("ERASER_BATCH", "yes"),
        ("ERASER_COLLAPSE", "yes"),
    ];
    let out = eraser_with_env(&args, &retired);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    // The banner names every non-default knob, so output equal to a run
    // without the variables is the default config.
    assert_eq!(out.stdout, eraser(&args).stdout);
    let _ = std::fs::remove_file(&bare);
}

#[test]
fn spec_file_and_design_file_together_is_a_runtime_error() {
    let path = spec_file("bothspec", r#"{"design": {"benchmark": "APB"}}"#);
    let out = eraser(&["--spec", path.to_str().unwrap(), "design.v"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.starts_with("error:"), "stderr: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_store_selector_is_a_runtime_error() {
    assert_runtime_error(&eraser(&["serve", "--store", "bogus"]), "bogus");
}

#[test]
fn well_formed_benchmark_spec_exits_zero() {
    let path = spec_file(
        "okspec",
        r#"{"design": {"benchmark": "APB"}, "steps": 10, "threads": 1}"#,
    );
    let out = eraser(&["--spec", path.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coverage"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&path);
}

/// A reader that stops early (`eraser … | head`) is not an error: with the
/// read end of its stdout pipe closed before the run, the report ends
/// quietly — exit zero, no panic.
#[test]
fn closed_stdout_pipe_ends_the_report_quietly() {
    let path = spec_file(
        "pipespec",
        r#"{"design": {"benchmark": "APB"}, "steps": 10, "threads": 1}"#,
    );
    let (reader, writer) = std::io::pipe().expect("open a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_eraser"))
        .args(["--spec", path.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("spawn eraser binary");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    let _ = std::fs::remove_file(&path);
}
