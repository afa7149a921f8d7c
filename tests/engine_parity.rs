//! Cross-engine fault-coverage parity — the correctness criterion of the
//! paper's Table II: ERASER (in all three redundancy modes) must detect
//! exactly the same fault set as the serial force-based simulator (IFsim),
//! the levelized full-evaluation simulator (VFsim), and the concurrent
//! explicit-only engine (CfSim).
//!
//! All engines are enumerated polymorphically through the
//! [`FaultSimEngine`](eraser::core::FaultSimEngine) trait and run against
//! identical inputs, so adding an engine to the line-up automatically adds
//! it to the parity check.
//!
//! The default tests run shortened campaigns on a representative subset;
//! the full-suite sweep (all ten benchmarks) runs in the benchmark harness
//! and in the `--ignored` test below.

use eraser::baselines::all_engines;
use eraser::core::{CampaignConfig, Eraser, FaultSimEngine};
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

    let engines = engines_under_test();
    assert_eq!(engines.len(), 6);
    let results: Vec<_> = engines
        .iter()
        .map(|e| e.run(&design, &faults, &stim, &CampaignConfig::default()))
        .collect();
    let reference = &results[0].coverage;
    // Sanity: campaigns actually detect something.
    assert!(
        reference.detected() > 0,
        "{}: nothing detected ({reference})",
        bench.name()
    );
    for (engine, result) in engines.iter().zip(&results) {
        assert!(
            reference.same_detected_set(&result.coverage),
            "{}: {} reports {reference} but {} reports {}",
            bench.name(),
            engines[0].name(),
            engine.name(),
            result.coverage
        );
        // Every engine counts its dropped faults, serial or concurrent:
        // with dropping on, one per detection.
        assert_eq!(
            result.stats.dropped_faults,
            result.coverage.detected() as u64,
            "{}: {} dropped-fault count",
            bench.name(),
            engine.name()
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
