//! Two-dimensional parallelism parity — the composed checkpointed +
//! fault-parallel campaign path must be a pure performance knob.
//!
//! Two invariants, asserted across engines × backends × thread counts ×
//! checkpoint intervals × batching × collapsing:
//!
//! 1. **Coverage identity.** Every configuration detects the identical
//!    coverage records (first-detection step and observing output per
//!    fault) as the serial non-checkpointed reference.
//! 2. **Counter thread-invariance.** At a fixed checkpoint interval, the
//!    window plan is worker-count-independent, so *every* semantic
//!    redundancy counter — not just coverage — is bit-identical between
//!    the serial run and any multi-threaded run of the same
//!    configuration. (Counters legitimately differ *across* intervals —
//!    each window group evaluates its own good suffix — which is exactly
//!    the trade `skipped_prefix_steps` measures.)
//!
//! The default tests run shortened campaigns on two benchmarks plus a
//! crafted late-activation design where the composed path must report
//! genuinely nonzero prefix/fault skips at every thread count — the
//! regression guard for the historical silent degradation where enabling
//! threads forfeited every checkpoint skip. The `--ignored` sweep widens
//! to all ten Table II benchmarks.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    BatchConfig, CampaignConfig, CheckpointConfig, CollapseConfig, Eraser, EvalBackend,
    FaultSimEngine, ParallelConfig, RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};
use eraser::frontend::compile;
use eraser::ir::Design;
use eraser::logic::LogicVec;
use eraser::sim::{Stimulus, StimulusBuilder};

const THREADS: [usize; 4] = [1, 2, 4, 7];
const INTERVALS: [usize; 4] = [0, 1, 8, 64];

/// The deterministic integer counters of a stats block (timing excluded).
fn counter_key(s: &RedundancyStats) -> [u64; 13] {
    [
        s.good_activations,
        s.opportunities,
        s.explicit_skipped,
        s.implicit_skipped,
        s.fault_executions,
        s.fault_only_activations,
        s.suppressed_activations,
        s.rtl_good_evals,
        s.rtl_fault_evals,
        s.deltas,
        s.skipped_prefix_steps,
        s.skipped_faults,
        s.dropped_faults,
    ]
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

/// Runs one engine through a knob set at every thread count: coverage must
/// match `reference` everywhere, and — when checkpointing is on — the
/// counters must match the knob set's own single-thread run bit-for-bit.
/// Returns the single-thread stats for caller-side feature assertions.
fn check_knobs(
    name: &str,
    engine: &dyn FaultSimEngine,
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
    knobs: &Knobs,
    reference: &eraser::fault::CoverageReport,
) -> Option<RedundancyStats> {
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
            let (Some(a), Some(b)) = (&serial.stats, &par.stats) else {
                panic!(
                    "{name} [{} x{threads}]: checkpointed runs must carry stats",
                    knobs.label()
                );
            };
            assert_eq!(
                counter_key(a),
                counter_key(b),
                "{name} [{} x{threads}]: counters not thread-invariant",
                knobs.label()
            );
        }
    }
    serial.stats
}

/// The full matrix for one fixture. The concurrent engines additionally
/// sweep the batching knob (the serial baselines ignore it by design, so
/// sweeping it there would only duplicate runs).
fn check_fixture(design: &Design, faults: &FaultList, stim: &Stimulus, intervals: &[usize]) {
    let serial_engines: [(&str, Box<dyn FaultSimEngine>); 2] =
        [("IFsim", Box::new(IFsim)), ("VFsim", Box::new(VFsim))];
    let concurrent_engines: [(&str, Box<dyn FaultSimEngine>); 2] = [
        ("CfSim", Box::new(CfSim)),
        ("Eraser", Box::new(Eraser::full())),
    ];
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        for (name, engine) in serial_engines.iter().chain(&concurrent_engines) {
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
                    let batch_axis: &[bool] = if concurrent_engines.iter().any(|(n, _)| n == name) {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &batch in batch_axis {
                        check_knobs(
                            name,
                            engine.as_ref(),
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
/// Now the composed path must report genuinely nonzero — and thread-
/// invariant — skip counters at every thread count: prefix and whole-fault
/// skips on the late-activation design, and prefix skips on a Table II
/// design (APB), which need not have a never-active fault.
#[test]
fn composed_path_reports_real_skips_at_every_thread_count() {
    let knobs = Knobs {
        backend: EvalBackend::Tree,
        interval: 8,
        batch: false,
        collapse: false,
    };
    for (name, (design, faults, stim), skips_faults) in [
        ("lateregs", late_activation_fixture(), true),
        ("APB", bench_fixture(Benchmark::Apb, 40, 60), false),
    ] {
        let mut keys = Vec::new();
        for threads in THREADS {
            let result = Eraser::full().run(&design, &faults, &stim, &knobs.config(threads));
            let stats = result
                .stats
                .expect("checkpointed concurrent campaigns carry stats");
            assert!(
                stats.skipped_prefix_steps > 0,
                "{name} x{threads}: composed path forfeited prefix skips: {stats:?}"
            );
            assert!(
                !skips_faults || stats.skipped_faults > 0,
                "{name} x{threads}: composed path forfeited fault skips: {stats:?}"
            );
            keys.push(counter_key(&stats));
        }
        assert!(
            keys.windows(2).all(|w| w[0] == w[1]),
            "{name}: skip counters moved across thread counts: {keys:?}"
        );
    }
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
