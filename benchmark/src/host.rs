//! What the numbers depend on besides the code: the process environment
//! (scrubbed), the host, the toolchain and the commit.

use eraser::netlist::json::JsonValue;
use std::path::PathBuf;
use std::process::Command;

/// Removes every `ERASER_*` variable, so that a knob a workload leaves
/// unset resolves to the product's built-in default and not to whatever
/// the calling shell exported. Call before any thread starts.
pub fn scrub_env() {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ERASER_"))
        .collect();
    for key in stale {
        std::env::remove_var(key);
    }
}

/// Makes the repository root the working directory, so the `path` design
/// reference and the `benchmark/out` outputs resolve from wherever the
/// binary was started. Prefers the current directory when it already is a
/// checkout root; falls back to the checkout the binary was built in.
pub fn enter_repo_root() -> Result<(), String> {
    let marker = "benchmark/designs/fifo_crc.v";
    if std::path::Path::new(marker).is_file() {
        return Ok(());
    }
    let built_in = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = built_in
        .parent()
        .filter(|r| r.join(marker).is_file())
        .ok_or_else(|| format!("cannot find `{marker}` from the current directory"))?;
    std::env::set_current_dir(root).map_err(|e| format!("cannot enter `{}`: {e}", root.display()))
}

/// The directory every output file goes to (gitignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, `rustc -V` and the commit, recorded beside the numbers. No
/// size or iteration count is derived from any of them.
pub fn describe() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::Obj(vec![
        ("nproc".into(), JsonValue::num(nproc as u64)),
        ("rustc".into(), JsonValue::str(first_line("rustc", &["-V"]))),
        (
            "commit".into(),
            JsonValue::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
