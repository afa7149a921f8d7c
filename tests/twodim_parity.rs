//! Two-dimensional parallelism parity — threads and every other knob must
//! be pure performance knobs.
//!
//! Asserted across engines × backends × thread counts × batching ×
//! collapsing:
//!
//! 1. **Coverage identity.** Every configuration detects the identical
//!    coverage records (first-detection step and observing output per
//!    fault) as the one-thread reference.
//! 2. **Counters are a function of the plan.** A group costs one
//!    good-network pass and the plan cuts one group per worker, so the
//!    concurrent engines' counters move with the thread count — but a run
//!    repeats them exactly, and **the drain is worker-invariant**: one
//!    plan drained by one worker or many gives bit-identical counters.
//! 3. **Per-fault counters are thread-invariant.** The serial baselines
//!    run every fault on its own fresh simulator from step 0, whatever
//!    group it rides in, so all their counters are bit-identical at every
//!    thread count.
//!
//! No engine reads the checkpoint interval, so it is no axis here
//! (`checkpoint_determinism.rs` pins that). The default tests run
//! shortened campaigns on two benchmarks plus a crafted late-activation
//! design. The `--ignored` sweep widens to all ten Table II benchmarks.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    drain_plan, plan_campaign, BatchConfig, CampaignConfig, CollapseConfig, Eraser, EraserEngine,
    EvalBackend, FaultSimEngine, ParallelConfig, RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::FaultList;
use eraser::ir::Design;
use eraser::sim::{Simulator, Stimulus};

mod common;
use common::{bench_fixture, late_activation_fixture};

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// The deterministic integer counters of a stats block (timing excluded).
fn counter_key(s: &RedundancyStats) -> [u64; 20] {
    s.clone().counters_mut().map(|(_, v)| *v)
}

struct Knobs {
    backend: EvalBackend,
    batch: bool,
    collapse: bool,
}

impl Knobs {
    fn config(&self, threads: usize) -> CampaignConfig {
        CampaignConfig {
            backend: self.backend,
            parallel: ParallelConfig::with_threads(threads),
            batch: BatchConfig {
                enabled: self.batch,
            },
            collapse: CollapseConfig {
                enabled: self.collapse,
            },
            ..Default::default()
        }
    }

    fn label(&self) -> String {
        format!(
            "{:?} batch={} collapse={}",
            self.backend, self.batch, self.collapse
        )
    }
}

/// `(name, engine, is it a serial per-fault baseline?)`.
type EngineUnderTest = (&'static str, Box<dyn FaultSimEngine>, bool);

/// Runs one engine through a knob set at every thread count: coverage must
/// match `reference` everywhere, and for the serial baselines
/// (`per_fault`) no counter may move.
fn check_knobs(
    (name, engine, per_fault): &EngineUnderTest,
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
    knobs: &Knobs,
    reference: &eraser::fault::CoverageReport,
) {
    let serial = engine.run(design, faults, stim, &knobs.config(1));
    assert_eq!(
        *reference,
        serial.coverage,
        "{name} [{}]: serial coverage diverged from reference",
        knobs.label()
    );
    for threads in THREADS.into_iter().skip(1) {
        let par = engine.run(design, faults, stim, &knobs.config(threads));
        assert_eq!(
            *reference,
            par.coverage,
            "{name} [{} x{threads}]: coverage diverged",
            knobs.label()
        );
        if *per_fault {
            assert_eq!(
                counter_key(&serial.stats),
                counter_key(&par.stats),
                "{name} [{} x{threads}]: per-fault counters not thread-invariant",
                knobs.label()
            );
        }
    }
}

/// The full matrix for one fixture. The concurrent engines also sweep
/// the batching knob, which the serial baselines do not read.
fn check_fixture(design: &Design, faults: &FaultList, stim: &Stimulus) {
    let engines: [EngineUnderTest; 4] = [
        ("IFsim", Box::new(IFsim), true),
        ("VFsim", Box::new(VFsim), true),
        ("CfSim", Box::new(CfSim), false),
        ("Eraser", Box::new(Eraser::full()), false),
    ];
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        for under_test in &engines {
            let (_, engine, per_fault) = under_test;
            let reference = engine
                .run(
                    design,
                    faults,
                    stim,
                    &Knobs {
                        backend,
                        batch: false,
                        collapse: false,
                    }
                    .config(1),
                )
                .coverage;
            for collapse in [false, true] {
                let batch_axis: &[bool] = if *per_fault { &[false] } else { &[false, true] };
                for &batch in batch_axis {
                    check_knobs(
                        under_test,
                        design,
                        faults,
                        stim,
                        &Knobs {
                            backend,
                            batch,
                            collapse,
                        },
                        &reference,
                    );
                }
            }
        }
    }
}

/// On the late-activation design and on a Table II design (APB):
///
/// * the serial baselines' counters are the same at every thread count;
/// * one concurrent plan drained by one worker or many gives bit-identical
///   coverage and counters.
#[test]
fn counters_are_worker_invariant() {
    let knobs = Knobs {
        backend: EvalBackend::Tree,
        batch: false,
        collapse: false,
    };
    for (name, (design, faults, stim)) in [
        ("lateregs", late_activation_fixture()),
        ("APB", bench_fixture(Benchmark::Apb, 40, 60)),
    ] {
        let serial_keys: Vec<_> = THREADS
            .iter()
            .map(|&threads| {
                counter_key(
                    &IFsim
                        .run(&design, &faults, &stim, &knobs.config(threads))
                        .stats,
                )
            })
            .collect();
        assert!(
            serial_keys.windows(2).all(|w| w[0] == w[1]),
            "{name}: per-fault counters moved across thread counts: {serial_keys:?}"
        );

        // One plan, any number of workers: the drain is worker-invariant.
        let plan = plan_campaign(&faults, 4);
        assert_eq!(plan.shards.len(), 4);
        let drained: Vec<_> = THREADS
            .iter()
            .map(|&workers| {
                drain_plan(&plan, workers, None, |group| {
                    let mut engine = EraserEngine::session(&design, &group.list).start();
                    engine.run(&stim);
                    (engine.coverage().clone(), engine.stats().clone())
                })
            })
            .collect();
        for d in &drained[1..] {
            assert_eq!(
                drained[0].coverage, d.coverage,
                "{name}: drain moved coverage"
            );
            assert_eq!(
                counter_key(&drained[0].stats),
                counter_key(&d.stats),
                "{name}: drain moved the counters"
            );
        }
    }
}

/// The CI gate on the sizing rule (named in `.github/workflows/ci.yml`):
/// on APB with two threads the plan has two groups, and — a group costs
/// at most one good-network pass — the campaign's summed `deltas` is at
/// most groups × the good run's.
#[test]
fn apb_campaign_costs_at_most_one_good_pass_per_worker() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 400, usize::MAX);
    let config = CampaignConfig {
        parallel: ParallelConfig::with_threads(2),
        ..Default::default()
    };
    let groups = plan_campaign(&faults, 2).shards.len() as u64;
    assert_eq!(groups, 2, "{groups} groups for 2 workers");
    let mut sim = Simulator::new(&design);
    sim.run_stimulus(&stim);
    let result = Eraser::full().run(&design, &faults, &stim, &config);
    let deltas = result.stats.deltas;
    assert!(
        deltas <= groups * sim.deltas(),
        "{deltas} deltas over {groups} groups, {} per good pass",
        sim.deltas()
    );
}

#[test]
fn late_activation_matrix() {
    let (design, faults, stim) = late_activation_fixture();
    check_fixture(&design, &faults, &stim);
}

#[test]
fn benchmark_apb_matrix() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 40, 60);
    check_fixture(&design, &faults, &stim);
}

#[test]
fn benchmark_alu_matrix() {
    let (design, faults, stim) = bench_fixture(Benchmark::Alu64, 24, 40);
    check_fixture(&design, &faults, &stim);
}

/// Full sweep over all ten Table II benchmarks (release CI leg).
#[test]
#[ignore = "slow: run with --ignored in release CI"]
fn benchmark_sweep_all_ten() {
    for bench in Benchmark::all() {
        let (design, faults, stim) = bench_fixture(bench, 40, 80);
        check_fixture(&design, &faults, &stim);
    }
}
