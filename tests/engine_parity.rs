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

/// A level-sensitive block whose sensitivity list leaves out a signal it
/// reads: `always @(a) y = a & b` re-runs on `a` only, under the levelized
/// settle rule (VFsim) as under the event-driven one (IFsim). Once `a`
/// and `b` are 1, `b` falling leaves `y` at 1 in every network, so
/// stuck-at-1 on `b` stays undetected; a rule that re-ran the block on `b`
/// would read 0 in the good network and detect it.
#[test]
fn parity_incomplete_sensitivity_list() {
    use eraser::fault::StuckAt;
    use eraser::logic::LogicVec;
    use eraser::sim::StimulusBuilder;

    let design = eraser::frontend::compile(
        "module m(input wire a, input wire b, output reg y);
           always @(a) y = a & b;
         endmodule",
        None,
    )
    .unwrap();
    let universe = FaultListConfig {
        include_inputs: true,
        ..FaultListConfig::default()
    };
    let faults = generate_faults(&design, &universe);
    let f = |n: &str| design.find_signal(n).unwrap();
    let (a, b) = (f("a"), f("b"));
    let mut sb = StimulusBuilder::new();
    for (sig, x) in [(a, 0), (b, 1), (a, 1), (b, 0), (a, 0)] {
        sb.add_step(vec![(sig, LogicVec::from_u64(1, x))]);
    }
    let stim = sb.finish();
    let engines = engines_under_test();
    let results: Vec<_> = engines
        .iter()
        .map(|e| e.run(&design, &faults, &stim, &CampaignConfig::default()))
        .collect();
    let reference = &results[0].coverage;
    assert!(reference.detected() > 0, "nothing detected ({reference})");
    let b_sa1 = faults
        .iter()
        .find(|x| x.signal == b && x.stuck == StuckAt::One)
        .expect("a stuck-at-1 on `b`");
    for (engine, result) in engines.iter().zip(&results) {
        assert!(
            reference.same_detected_set(&result.coverage),
            "{} reports {reference} but {} reports {}",
            engines[0].name(),
            engine.name(),
            result.coverage
        );
        assert!(
            !result.coverage.is_detected(b_sa1.id),
            "{} detects stuck-at-1 on `b`",
            engine.name()
        );
    }
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
