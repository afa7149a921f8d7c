//! Cross-engine fault-coverage parity — the correctness criterion of the
//! paper's Table II: ERASER (in all three redundancy modes) must detect
//! exactly the same fault set as the serial force-based simulator (IFsim),
//! the levelized full-evaluation simulator (VFsim), and the concurrent
//! explicit-only engine (CfSim).
//!
//! All engines are enumerated polymorphically through the
//! [`FaultSimEngine`](eraser::core::FaultSimEngine) trait and driven by one
//! [`CampaignRunner`](eraser::core::CampaignRunner), so adding an engine to
//! the line-up automatically adds it to the parity check.
//!
//! The default tests run shortened campaigns on a representative subset;
//! the full-suite sweep (all ten benchmarks) runs in the benchmark harness
//! and in the `--ignored` test below.

use eraser::baselines::all_engines;
use eraser::core::{CampaignRunner, Eraser, FaultSimEngine};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultListConfig};

/// The full line-up under test: the Fig. 6 engines (IFsim, VFsim, CfSim,
/// Eraser) plus the remaining two ablation variants of the concurrent
/// engine (Eraser--, Eraser-).
fn engines_under_test() -> Vec<Box<dyn FaultSimEngine>> {
    let mut engines = all_engines();
    engines.push(Box::new(Eraser::none()));
    engines.push(Box::new(Eraser::explicit()));
    engines
}

fn parity_for(bench: Benchmark, cycles: usize, max_faults: usize) {
    let design = bench.build();
    let mut cfg: FaultListConfig = bench.fault_config();
    cfg.max_faults = Some(max_faults.min(cfg.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, cycles);

    let runner = CampaignRunner::new(&design, &faults, &stim);
    let results = runner.run_all(&engines_under_test());
    assert_eq!(results.len(), 6);
    if let Err(mismatch) = CampaignRunner::check_parity(&results) {
        panic!("{}: {mismatch}", bench.name());
    }
    // Sanity: campaigns actually detect something.
    assert!(
        results[0].coverage.detected() > 0,
        "{}: nothing detected ({})",
        bench.name(),
        results[0].coverage
    );
    // The concurrent engines always carry redundancy instrumentation; the
    // serial baselines carry it only under checkpointed good-state replay
    // (which their skip counters quantify), which this line-up leaves off.
    for r in &results {
        let concurrent = r.name.starts_with("Eraser") || r.name == "CfSim";
        assert_eq!(
            r.stats.is_some(),
            concurrent,
            "{}: unexpected stats presence for {}",
            bench.name(),
            r.name
        );
    }
}

#[test]
fn parity_alu() {
    parity_for(Benchmark::Alu64, 40, 80);
}

#[test]
fn parity_apb() {
    parity_for(Benchmark::Apb, 60, 80);
}

#[test]
fn parity_picorv32() {
    parity_for(Benchmark::PicoRv32, 60, 80);
}

#[test]
fn parity_sha256_hv() {
    parity_for(Benchmark::Sha256Hv, 72, 60);
}

#[test]
fn parity_conv() {
    parity_for(Benchmark::ConvAcc, 40, 60);
}

/// Full-suite parity across all ten benchmarks with larger fault samples.
/// Slow in debug builds; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn parity_full_suite() {
    for bench in Benchmark::all() {
        parity_for(bench, bench.default_cycles() / 2, 250);
    }
}
