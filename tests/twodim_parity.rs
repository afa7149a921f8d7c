//! Two-dimensional parallelism parity — threads, the serial baselines'
//! checkpointed restarts and every other knob must be pure performance
//! knobs.
//!
//! Asserted across engines × backends × thread counts × batching ×
//! collapsing, and for the serial baselines × checkpoint intervals:
//!
//! 1. **Coverage identity.** Every configuration detects the identical
//!    coverage records (first-detection step and observing output per
//!    fault) as the serial non-checkpointed reference.
//! 2. **Counters are a function of the plan.** A group costs one
//!    good-network pass and the plan cuts one group per worker, so the
//!    concurrent engines' counters move with the thread count — but a run
//!    repeats them exactly, and **the drain is worker-invariant**: one
//!    plan drained by one worker or many gives bit-identical counters.
//! 3. **Per-fault counters are thread-invariant.** The serial baselines
//!    restore every fault at its own latest eligible checkpoint, whatever
//!    group it rides in, so all their counters are bit-identical at every
//!    thread count.
//!
//! The concurrent engines leave the checkpoint axis out: they start every
//! fault at step 0 and ignore the interval (`checkpoint_determinism.rs`
//! pins that). The default tests run shortened campaigns on two
//! benchmarks plus a crafted late-activation design where the baselines
//! must report genuinely nonzero prefix and fault skips at every thread
//! count. The `--ignored` sweep widens to all ten Table II benchmarks.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    drain_plan, plan_campaign, BatchConfig, CampaignConfig, CheckpointConfig, CollapseConfig,
    Eraser, EraserEngine, EvalBackend, FaultSimEngine, ParallelConfig, RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};
use eraser::frontend::compile;
use eraser::ir::Design;
use eraser::logic::LogicVec;
use eraser::sim::{Simulator, Stimulus, StimulusBuilder};

const THREADS: [usize; 4] = [1, 2, 4, 7];
const INTERVALS: [usize; 4] = [0, 1, 8, 64];

/// The deterministic integer counters of a stats block (timing excluded).
fn counter_key(s: &RedundancyStats) -> [u64; 20] {
    s.clone().counters_mut().map(|(_, v)| *v)
}

struct Knobs {
    backend: EvalBackend,
    interval: usize,
    batch: bool,
    collapse: bool,
}

impl Knobs {
    fn config(&self, threads: usize) -> CampaignConfig {
        CampaignConfig {
            backend: self.backend,
            checkpoint: CheckpointConfig::every(self.interval),
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
            "{:?} ckpt={} batch={} collapse={}",
            self.backend, self.interval, self.batch, self.collapse
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

/// The full matrix for one fixture. The serial baselines sweep
/// `intervals`; the concurrent engines sweep the batching knob instead
/// (each kind ignores the other's knob by design, so sweeping it there
/// would only duplicate runs).
fn check_fixture(design: &Design, faults: &FaultList, stim: &Stimulus, intervals: &[usize]) {
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
                        interval: 0,
                        batch: false,
                        collapse: false,
                    }
                    .config(1),
                )
                .coverage;
            let interval_axis: &[usize] = if *per_fault { intervals } else { &[0] };
            for &interval in interval_axis {
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
                                interval,
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
}

fn bench_fixture(
    bench: Benchmark,
    cycles: usize,
    max_faults: usize,
) -> (Design, FaultList, Stimulus) {
    let design = bench.build();
    let mut fc = bench.fault_config();
    fc.max_faults = Some(max_faults.min(fc.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(&design, &fc);
    let stim = bench.stimulus_with_cycles(&design, cycles);
    (design, faults, stim)
}

/// A design with genuinely staggered activation: `bank` is written only
/// under `en` (asserted from cycle 25), and the masked high nibble of `m`
/// can never contradict its sa0 faults at all — so a checkpointed serial
/// baseline must skip real prefixes and whole faults.
fn late_activation_fixture() -> (Design, FaultList, Stimulus) {
    let design = compile(
        "module lateregs(input wire clk, input wire rst, input wire en, input wire [3:0] a,
                         output reg [7:0] acc, output reg [7:0] bank, output wire [7:0] obs);
           wire [7:0] m;
           assign m = acc & 8'h0f;
           assign obs = bank ^ m;
           always @(posedge clk) begin
             if (rst) begin acc <= 8'h00; bank <= 8'h00; end
             else begin
               acc <= acc + {4'h0, a};
               if (en) bank <= acc;
             end
           end
         endmodule",
        None,
    )
    .unwrap();
    let faults = generate_faults(&design, &FaultListConfig::default());
    let clk = design.find_signal("clk").unwrap();
    let rst = design.find_signal("rst").unwrap();
    let en = design.find_signal("en").unwrap();
    let a = design.find_signal("a").unwrap();
    let mut sb = StimulusBuilder::new();
    let mut x = 5u64;
    for cycle in 0..40u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sb.add_cycle(
            clk,
            &[
                (rst, LogicVec::from_u64(1, (cycle < 2) as u64)),
                (
                    en,
                    LogicVec::from_u64(1, (cycle >= 25 && x & 4 != 0) as u64),
                ),
                (a, LogicVec::from_u64(4, x >> 33)),
            ],
        );
    }
    (design, faults, sb.finish())
}

/// The regression guard for the historical silent degradation, when
/// enabling threads forfeited every checkpoint skip. What must hold now,
/// on the late-activation design and on a Table II design (APB):
///
/// * the serial baselines skip real prefixes, the same ones at every
///   thread count, and on the late design whole faults too;
/// * one concurrent plan drained by one worker or many gives bit-identical
///   coverage and counters.
#[test]
fn composed_path_reports_real_skips_at_every_thread_count() {
    let knobs = Knobs {
        backend: EvalBackend::Tree,
        interval: 8,
        batch: false,
        collapse: false,
    };
    for (name, (design, faults, stim), late) in [
        ("lateregs", late_activation_fixture(), true),
        ("APB", bench_fixture(Benchmark::Apb, 40, 60), false),
    ] {
        let mut serial_keys = Vec::new();
        for threads in THREADS {
            let stats = IFsim
                .run(&design, &faults, &stim, &knobs.config(threads))
                .stats;
            assert!(
                stats.skipped_prefix_steps > 0,
                "{name} x{threads}: IFsim forfeited prefix skips: {stats:?}"
            );
            assert!(
                !late || stats.skipped_faults > 0,
                "{name} x{threads}: IFsim forfeited fault skips: {stats:?}"
            );
            serial_keys.push(counter_key(&stats));
        }
        assert!(
            serial_keys.windows(2).all(|w| w[0] == w[1]),
            "{name}: per-fault counters moved across thread counts: {serial_keys:?}"
        );

        // One plan, any number of workers: the drain is worker-invariant.
        let plan = plan_campaign(&faults, None, 4);
        assert_eq!(plan.shards.len(), 4);
        let drained: Vec<_> = THREADS
            .iter()
            .map(|&workers| {
                drain_plan(&plan, None, workers, None, |group| {
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
    let groups = plan_campaign(&faults, None, 2).shards.len() as u64;
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
    check_fixture(&design, &faults, &stim, &INTERVALS);
}

#[test]
fn benchmark_apb_matrix() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 40, 60);
    check_fixture(&design, &faults, &stim, &INTERVALS);
}

#[test]
fn benchmark_alu_matrix() {
    let (design, faults, stim) = bench_fixture(Benchmark::Alu64, 24, 40);
    check_fixture(&design, &faults, &stim, &[0, 8]);
}

/// Full sweep over all ten Table II benchmarks (release CI leg).
#[test]
#[ignore = "slow: run with --ignored in release CI"]
fn benchmark_sweep_all_ten() {
    for bench in Benchmark::all() {
        let (design, faults, stim) = bench_fixture(bench, 40, 80);
        check_fixture(&design, &faults, &stim, &[0, 8]);
    }
}
