//! Fault-parallel determinism: for every engine and thread counts
//! {1, 2, 4, 7}, the merged [`CoverageReport`] of a campaign fanned out
//! through [`CampaignConfig::parallel`] — the one way to fan out — must be
//! **bit-identical** to the serial run: the same detected set, the same
//! first-detection steps, the same observing outputs, and therefore the
//! same coverage metric. Each thread count cuts the universe into a
//! different set of site-affinity groups (`threads × 4`), so this is the
//! structural guarantee that makes parallelism a pure wall-clock axis:
//! grouping never changes results. Checkpointing is off throughout;
//! `tests/twodim_parity.rs` sweeps the same axis with it on.
//!
//! The default tests sweep a representative subset; the `--ignored` test
//! extends the parity sweep across all ten benchmark designs and the full
//! engine line-up (run with `cargo test --release -- --ignored`, as CI
//! does).

use eraser::baselines::{all_engines, CfSim, IFsim, VFsim};
use eraser::core::{
    run_campaign_with, CampaignConfig, CampaignContext, CampaignProgress, CampaignRunner, Eraser,
    FaultSimEngine, ParallelConfig,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};
use eraser::ir::Design;
use eraser::sim::Stimulus;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 7];

fn fixture(bench: Benchmark, cycles: usize, max_faults: usize) -> (Design, FaultList, Stimulus) {
    let design = bench.build();
    let mut cfg: FaultListConfig = bench.fault_config();
    cfg.max_faults = Some(max_faults.min(cfg.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, cycles);
    (design, faults, stim)
}

fn threaded(threads: usize) -> CampaignConfig {
    CampaignConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..CampaignConfig::default()
    }
}

/// Runs `engine` serially and at every thread count of the sweep,
/// requiring full bit-identity.
fn assert_deterministic(
    bench: Benchmark,
    cycles: usize,
    max_faults: usize,
    engine: &dyn FaultSimEngine,
) {
    let (design, faults, stim) = fixture(bench, cycles, max_faults);
    let serial = engine.run(&design, &faults, &stim, &CampaignConfig::default());
    assert!(
        serial.coverage.detected() > 0,
        "{} {}: serial campaign detected nothing",
        bench.name(),
        serial.name
    );
    for threads in THREAD_SWEEP {
        let merged = engine.run(&design, &faults, &stim, &threaded(threads));
        // CoverageReport's PartialEq compares every fault's detection
        // record — step and output included — so this is bit-identity,
        // stronger than the detected-set parity of Table II.
        assert_eq!(
            serial.coverage,
            merged.coverage,
            "{} {} [x{threads}]: merged coverage diverged from serial",
            bench.name(),
            serial.name,
        );
        assert_eq!(
            serial.coverage.coverage_percent(),
            merged.coverage.coverage_percent()
        );
        assert!((1..=threads).contains(&merged.threads));
    }
}

#[test]
fn eraser_full_is_deterministic_across_partitions() {
    assert_deterministic(Benchmark::Alu64, 30, 32, &Eraser::full());
    assert_deterministic(Benchmark::Apb, 40, 32, &Eraser::full());
    assert_deterministic(Benchmark::PicoRv32, 40, 24, &Eraser::full());
}

#[test]
fn eraser_ablation_modes_are_deterministic() {
    for bench in [Benchmark::Alu64, Benchmark::Apb, Benchmark::PicoRv32] {
        assert_deterministic(bench, 30, 24, &Eraser::explicit());
        assert_deterministic(bench, 30, 24, &Eraser::none());
    }
}

#[test]
fn serial_baselines_are_deterministic_across_partitions() {
    for bench in [Benchmark::Alu64, Benchmark::Apb, Benchmark::PicoRv32] {
        assert_deterministic(bench, 24, 20, &IFsim);
        assert_deterministic(bench, 24, 16, &VFsim);
        assert_deterministic(bench, 30, 20, &CfSim);
    }
}

/// The whole line-up under one shared four-thread [`ParallelConfig`]
/// against the serial line-up on the same inputs, via the
/// [`CampaignRunner`] parity checker.
#[test]
fn parallel_line_up_passes_cross_engine_parity() {
    let (design, faults, stim) = fixture(Benchmark::Sha256Hv, 72, 24);
    let serial = CampaignRunner::new(&design, &faults, &stim);
    let parallel =
        CampaignRunner::new(&design, &faults, &stim).with_parallel(ParallelConfig::with_threads(4));
    let mut results = serial.run_all(&all_engines());
    results.extend(parallel.run_all(&all_engines()));
    results.extend(parallel.run_all(&Eraser::ablation()));
    assert_eq!(results.len(), 11);
    CampaignRunner::check_parity(&results).expect("parallel line-up parity");
    assert!(results[..4].iter().all(|r| r.threads == 1));
    assert!(results[4..].iter().all(|r| r.threads == 4));
}

/// `run_campaign` driven through `CampaignConfig::parallel` (the path the
/// CLI and the campaign service use) is bit-identical to serial as well.
#[test]
fn run_campaign_parallel_config_is_deterministic() {
    let (design, faults, stim) = fixture(Benchmark::ConvAcc, 40, 32);
    let serial = eraser::core::run_campaign(&design, &faults, &stim, &CampaignConfig::default());
    for threads in THREAD_SWEEP {
        let res = eraser::core::run_campaign(&design, &faults, &stim, &threaded(threads));
        assert_eq!(
            serial.coverage, res.coverage,
            "run_campaign [x{threads}] diverged"
        );
        // The work ledger still balances on merged stats.
        let s = &res.stats;
        assert_eq!(
            s.opportunities,
            (s.fault_executions - s.fault_only_activations)
                + s.explicit_skipped
                + s.implicit_skipped
                + s.suppressed_activations,
            "[x{threads}] merged stats ledger unbalanced"
        );
    }
}

/// What "same speed as before" rests on, read off the plan the drain
/// announces to [`CampaignProgress`]: a one-thread plain campaign is
/// exactly one group — one engine over the caller's list — and a
/// four-thread one is at most four non-empty groups, one per worker,
/// covering every fault once (the test's name dates from the `4 × 4`
/// oversubscription rule). An empty universe is one (fault-free) engine
/// however many threads were asked for.
#[test]
fn plain_campaign_announces_one_group_serial_and_at_most_sixteen_at_four_threads() {
    let (design, faults, stim) = fixture(Benchmark::ConvAcc, 40, 48);
    let announced = |faults: &FaultList, threads: usize| {
        let progress = CampaignProgress::new();
        let ctx = CampaignContext {
            progress: Some(&progress),
            ..CampaignContext::default()
        };
        let result = run_campaign_with(&design, faults, &stim, &threaded(threads), &ctx);
        assert_eq!(result.coverage.total(), faults.len());
        let snap = progress.snapshot();
        assert_eq!(snap.groups_done, snap.groups_total);
        assert_eq!(snap.faults_done, snap.faults_total);
        assert_eq!(snap.faults_total, faults.len() as u64, "x{threads}");
        snap.groups_total
    };
    assert_eq!(announced(&faults, 1), 1);
    let groups = announced(&faults, 4);
    assert!((2..=4).contains(&groups), "{groups} groups at 4 threads");
    assert_eq!(announced(&FaultList::default(), 4), 1);
}

/// Full determinism sweep: every engine, threads {1, 2, 4, 7}, all ten
/// benchmark designs. Slow in debug builds; run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn determinism_full_suite() {
    for bench in Benchmark::all() {
        let cycles = (bench.default_cycles() / 3).max(24);
        assert_deterministic(bench, cycles, 60, &IFsim);
        assert_deterministic(bench, cycles, 60, &VFsim);
        assert_deterministic(bench, cycles, 60, &CfSim);
        assert_deterministic(bench, cycles, 60, &Eraser::full());
        assert_deterministic(bench, cycles, 60, &Eraser::explicit());
        assert_deterministic(bench, cycles, 60, &Eraser::none());
    }
}
