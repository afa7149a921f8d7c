//! Fault-parallel determinism: for every engine, every partition strategy
//! and thread counts {1, 2, 4, 7}, the merged [`CoverageReport`] of a
//! sharded campaign must be **bit-identical** to the serial run — the same
//! detected set, the same first-detection steps, the same observing
//! outputs, and therefore the same coverage metric. This is the structural
//! guarantee that makes parallelism a pure wall-clock axis: partitioning
//! never changes results.
//!
//! The default tests sweep a representative subset; the `--ignored` test
//! extends the parity sweep across all ten benchmark designs and the full
//! engine line-up (run with `cargo test --release -- --ignored`, as CI
//! does).

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    CampaignConfig, CampaignRunner, Eraser, FaultSimEngine, Parallel, ParallelConfig,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultListConfig, PartitionStrategy};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 7];

/// Runs `engine` serially and through the [`Parallel`] adapter for every
/// strategy/thread-count combination, requiring full bit-identity.
fn assert_deterministic<E: FaultSimEngine + Sync + Copy>(
    bench: Benchmark,
    cycles: usize,
    max_faults: usize,
    engine: E,
) {
    let design = bench.build();
    let mut cfg: FaultListConfig = bench.fault_config();
    cfg.max_faults = Some(max_faults.min(cfg.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, cycles);
    let config = CampaignConfig::serial();
    let serial = engine.run(&design, &faults, &stim, &config);
    assert!(
        serial.coverage.detected() > 0,
        "{} {}: serial campaign detected nothing",
        bench.name(),
        serial.name
    );
    for strategy in PartitionStrategy::all() {
        for threads in THREAD_SWEEP {
            let par = Parallel::new(engine, ParallelConfig { threads, strategy });
            let merged = par.run(&design, &faults, &stim, &config);
            // CoverageReport's PartialEq compares every fault's detection
            // record — step and output included — so this is bit-identity,
            // stronger than the detected-set parity of Table II.
            assert_eq!(
                serial.coverage,
                merged.coverage,
                "{} {} [{strategy} x{threads}]: merged coverage diverged from serial",
                bench.name(),
                serial.name,
            );
            assert_eq!(
                serial.coverage.coverage_percent(),
                merged.coverage.coverage_percent()
            );
        }
    }
}

#[test]
fn eraser_full_is_deterministic_across_partitions() {
    assert_deterministic(Benchmark::Alu64, 30, 32, Eraser::full());
    assert_deterministic(Benchmark::Apb, 40, 32, Eraser::full());
    assert_deterministic(Benchmark::PicoRv32, 40, 24, Eraser::full());
}

#[test]
fn eraser_ablation_modes_are_deterministic() {
    assert_deterministic(Benchmark::Apb, 40, 24, Eraser::explicit());
    assert_deterministic(Benchmark::Apb, 40, 24, Eraser::none());
}

#[test]
fn serial_baselines_are_deterministic_across_partitions() {
    assert_deterministic(Benchmark::Alu64, 24, 20, IFsim);
    assert_deterministic(Benchmark::Apb, 32, 16, VFsim);
    assert_deterministic(Benchmark::RiscvMini, 30, 20, CfSim);
}

/// The parity sweep extension: the whole parallel line-up (all six engines
/// under one shared [`ParallelConfig`]) against the serial line-up on the
/// same inputs, via the [`CampaignRunner`] parity checker.
#[test]
fn parallel_line_up_passes_cross_engine_parity() {
    let bench = Benchmark::Sha256Hv;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(24);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 72);
    let runner = CampaignRunner::new(&design, &faults, &stim).with_config(CampaignConfig::serial());
    let engines = eraser::baselines::all_engines_parallel(ParallelConfig::with_threads(4));
    let results = runner.run_all(&engines);
    assert_eq!(results.len(), 6);
    CampaignRunner::check_parity(&results).expect("parallel line-up parity");
    assert!(results.iter().all(|r| r.name.ends_with(" p4")));
}

/// `run_campaign` driven through `CampaignConfig::parallel` (the path the
/// CLI and the campaign service use) is bit-identical to serial as well.
#[test]
fn run_campaign_parallel_config_is_deterministic() {
    let bench = Benchmark::ConvAcc;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(32);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 40);
    let serial = eraser::core::run_campaign(&design, &faults, &stim, &CampaignConfig::serial());
    for strategy in PartitionStrategy::all() {
        for threads in THREAD_SWEEP {
            let res = eraser::core::run_campaign(
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    parallel: ParallelConfig { threads, strategy },
                    ..CampaignConfig::serial()
                },
            );
            assert_eq!(
                serial.coverage, res.coverage,
                "run_campaign [{strategy} x{threads}] diverged"
            );
            // The work ledger still balances on merged stats.
            let s = &res.stats;
            assert_eq!(
                s.opportunities,
                (s.fault_executions - s.fault_only_activations)
                    + s.explicit_skipped
                    + s.implicit_skipped
                    + s.suppressed_activations,
                "[{strategy} x{threads}] merged stats ledger unbalanced"
            );
        }
    }
}

/// Full determinism sweep: every engine, every strategy, threads
/// {1, 2, 4, 7}, all ten benchmark designs. Slow in debug builds; run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn determinism_full_suite() {
    for bench in Benchmark::all() {
        let cycles = (bench.default_cycles() / 3).max(24);
        assert_deterministic(bench, cycles, 60, IFsim);
        assert_deterministic(bench, cycles, 60, VFsim);
        assert_deterministic(bench, cycles, 60, CfSim);
        assert_deterministic(bench, cycles, 60, Eraser::full());
        assert_deterministic(bench, cycles, 60, Eraser::explicit());
        assert_deterministic(bench, cycles, 60, Eraser::none());
    }
}
