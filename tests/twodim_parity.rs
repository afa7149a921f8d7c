//! Two-dimensional parallelism parity — the composed checkpointed +
//! fault-parallel campaign path must be a pure performance knob.
//!
//! Asserted across engines × backends × thread counts × checkpoint
//! intervals × batching × collapsing:
//!
//! 1. **Coverage identity.** Every configuration detects the identical
//!    coverage records (first-detection step and observing output per
//!    fault) as the serial non-checkpointed reference.
//! 2. **Counters are a function of the plan.** A group costs one
//!    good-network pass and the plan cuts one group per worker, so the
//!    concurrent engines' counters move with the thread count — but a run
//!    repeats them exactly, `skipped_faults` is the good run's alone, and
//!    **the drain is worker-invariant**: one plan drained by one worker or
//!    many gives bit-identical counters.
//! 3. **Per-fault counters are thread-invariant.** The serial baselines
//!    restore every fault at its own latest eligible checkpoint, whatever
//!    group it rides in, so all their counters are bit-identical at every
//!    thread count.
//!
//! 4. **The good run stops once every window is final.** It then holds
//!    fewer boundaries than a full replay, yet the same plan and the same
//!    latest eligible checkpoint for every fault; a never-active fault
//!    keeps it going to the end.
//!
//! The default tests run shortened campaigns on two benchmarks plus a
//! crafted late-activation design where the composed path must report
//! genuinely nonzero prefix/fault skips — the regression guard for the
//! historical silent degradation where enabling threads forfeited every
//! checkpoint skip. The `--ignored` sweep widens to all ten Table II
//! benchmarks.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    drain_plan, plan_campaign, record_good_run, record_good_run_on, BatchConfig, CampaignConfig,
    CheckpointConfig, CollapseConfig, Eraser, EraserEngine, EvalBackend, FaultSimEngine,
    GoodRunArtifacts, ParallelConfig, RedundancyStats,
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
/// match `reference` everywhere; under checkpointing `skipped_faults` must
/// not move, and for the serial baselines (`per_fault`) no counter may.
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
        if knobs.interval > 0 {
            let (a, b) = (&serial.stats, &par.stats);
            assert_eq!(
                a.skipped_faults,
                b.skipped_faults,
                "{name} [{} x{threads}]: never-active faults moved with the thread count",
                knobs.label()
            );
            if *per_fault {
                assert_eq!(
                    counter_key(a),
                    counter_key(b),
                    "{name} [{} x{threads}]: per-fault counters not thread-invariant",
                    knobs.label()
                );
            }
        }
    }
}

/// The full matrix for one fixture. The concurrent engines additionally
/// sweep the batching knob (the serial baselines ignore it by design, so
/// sweeping it there would only duplicate runs).
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
            for &interval in intervals {
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
/// can never contradict its sa0 faults at all — so a checkpointed run must
/// skip real prefixes and whole faults.
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

/// The regression guard for the historical silent degradation: before the
/// two-dimensional scheduler, enabling threads put the concurrent engine
/// on the from-zero path and every checkpoint skip was silently forfeited.
/// What must hold now, on the late-activation design and on a Table II
/// design (APB, which need not have a never-active fault):
///
/// * the serial baselines skip real prefixes, the same ones at every
///   thread count;
/// * the concurrent engine drops the never-active faults at any thread
///   count, and once the cut is fine enough to isolate the late faults
///   their chunk starts past step 0;
/// * a run repeats its counters exactly, and one plan drained by one
///   worker or many gives bit-identical coverage and counters.
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
            let config = knobs.config(threads);
            let serial = IFsim.run(&design, &faults, &stim, &config);
            let stats = serial.stats;
            assert!(
                stats.skipped_prefix_steps > 0,
                "{name} x{threads}: IFsim forfeited prefix skips: {stats:?}"
            );
            serial_keys.push(counter_key(&stats));

            let result = Eraser::full().run(&design, &faults, &stim, &config);
            let stats = result.stats;
            assert!(
                !late || stats.skipped_faults > 0,
                "{name} x{threads}: composed path forfeited fault skips: {stats:?}"
            );
            // Cut in four or more, the late-activation design's last
            // chunk holds only `bank` / `obs` faults that open after
            // cycle 25. (Cut in two, the second chunk's head is a window-1
            // fault, and APB's windows are all early.)
            assert!(
                !(late && threads >= 4) || stats.skipped_prefix_steps > 0,
                "{name} x{threads}: the late chunk started at step 0: {stats:?}"
            );
            let again = Eraser::full().run(&design, &faults, &stim, &config);
            assert_eq!(
                counter_key(&stats),
                counter_key(&again.stats),
                "{name} x{threads}: a rerun moved the counters"
            );
        }
        assert!(
            serial_keys.windows(2).all(|w| w[0] == w[1]),
            "{name}: per-fault counters moved across thread counts: {serial_keys:?}"
        );

        // One plan, any number of workers: the drain is worker-invariant.
        let config = knobs.config(4);
        let good = record_good_run(&design, &faults, &stim, &config, None);
        let plan = plan_campaign(&faults, Some(&good), 4);
        assert!(plan.shards.len() > 1 && plan.shards.len() <= 4);
        let drained: Vec<_> = THREADS
            .iter()
            .map(|&workers| {
                drain_plan(&plan, Some(&good), workers, None, |group, snapshot| {
                    let snapshot = snapshot.expect("window groups name a checkpoint");
                    let mut engine = EraserEngine::session(&design, &group.list)
                        .resume_from(snapshot, group.start)
                        .start();
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
/// on APB at checkpoint interval 64 with two threads the plan has at most
/// two groups, and — a group costs at most one good-network pass — the
/// campaign's summed `deltas` is at most groups × the good run's.
#[test]
fn apb_checkpointed_campaign_costs_at_most_one_good_pass_per_worker() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 400, usize::MAX);
    let config = CampaignConfig {
        checkpoint: CheckpointConfig::every(64),
        parallel: ParallelConfig::with_threads(2),
        ..Default::default()
    };
    let good = record_good_run(&design, &faults, &stim, &config, None);
    let groups = plan_campaign(&faults, Some(&good), 2).shards.len() as u64;
    assert!((1..=2).contains(&groups), "{groups} groups for 2 workers");
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

/// A reset counter: every fault's site bit is unknown at power-on and
/// contradicts its stuck value within the first nine cycles, so every
/// window is final long before the 64-cycle stimulus ends.
fn early_activation_fixture() -> (Design, FaultList, Stimulus) {
    let design = compile(
        "module early(input wire clk, input wire rst, output reg [3:0] q);
           always @(posedge clk) begin
             if (rst) q <= 4'h0; else q <= q + 4'h1;
           end
         endmodule",
        None,
    )
    .unwrap();
    let faults = generate_faults(&design, &FaultListConfig::default());
    let clk = design.find_signal("clk").unwrap();
    let rst = design.find_signal("rst").unwrap();
    let mut sb = StimulusBuilder::new();
    for cycle in 0..64u64 {
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, (cycle < 2) as u64))]);
    }
    (design, faults, sb.finish())
}

/// The good run of `record_good_run` next to a full replay of the same
/// stimulus (`record_good_run_on`, as the serial baselines take it),
/// checkpoint every 8 steps; asserts both give the same plan at 1–3
/// workers and the same latest eligible checkpoint for every fault.
fn stopped_and_full_runs(
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
) -> (GoodRunArtifacts, GoodRunArtifacts) {
    let config = CampaignConfig {
        checkpoint: CheckpointConfig::every(8),
        ..Default::default()
    };
    let stopped = record_good_run(design, faults, stim, &config, None);
    let full = record_good_run_on(
        Simulator::new(design),
        faults,
        stim,
        config.checkpoint,
        |_| {},
    );
    assert_eq!(full.replayed_steps(), stim.steps.len());
    assert_eq!(full.num_checkpoints(), stim.steps.len().div_ceil(8));
    for threads in 1..=3 {
        let [a, b] = [&stopped, &full].map(|g| plan_campaign(faults, Some(g), threads));
        assert_eq!(a.skipped, b.skipped, "x{threads}: never-active faults");
        assert_eq!(a.shards.len(), b.shards.len(), "x{threads}: groups");
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(
                (x.global_ids(), x.checkpoint, x.start),
                (y.global_ids(), y.checkpoint, y.start),
                "x{threads}: a group moved"
            );
        }
    }
    for f in faults.iter() {
        let [(a, sa), (b, sb)] = [&stopped, &full].map(|g| g.latest_checkpoint(f.id));
        assert!(a == b && sa == sb, "fault {:?}: {a} vs {b}", f.id);
    }
    (stopped, full)
}

#[test]
fn the_good_run_stops_once_every_window_is_final() {
    let (design, faults, stim) = early_activation_fixture();
    let (stopped, full) = stopped_and_full_runs(&design, &faults, &stim);
    assert!(
        stopped.num_checkpoints() < full.num_checkpoints(),
        "{} of {} boundaries captured",
        stopped.num_checkpoints(),
        full.num_checkpoints()
    );
    assert_eq!(stopped.replayed_steps(), 8 * stopped.num_checkpoints());
    // The campaign stamps where its good run stopped.
    let config = CampaignConfig {
        checkpoint: CheckpointConfig::every(8),
        ..Default::default()
    };
    let result = Eraser::full().run(&design, &faults, &stim, &config);
    assert_eq!(result.stats.good_run_steps, stopped.replayed_steps() as u64);
}

#[test]
fn a_never_active_fault_keeps_the_good_run_to_the_end() {
    let (design, faults, stim) = late_activation_fixture();
    let (stopped, full) = stopped_and_full_runs(&design, &faults, &stim);
    assert!(!plan_campaign(&faults, Some(&stopped), 1).skipped.is_empty());
    assert_eq!(stopped.num_checkpoints(), full.num_checkpoints());
    assert_eq!(stopped.replayed_steps(), stim.steps.len());
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
