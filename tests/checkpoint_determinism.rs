//! Checkpointed good-state replay determinism — the correctness criterion
//! of temporal redundancy trimming: for every engine, evaluation backend,
//! checkpoint interval and thread count, coverage must be **bit-identical**
//! (every fault's first-detection step and observing output, not just the
//! detected set) to the same engine's non-checkpointed run.
//!
//! The redundancy counters are a function of the plan, and the plan cuts
//! one group per worker, so for the concurrent engines they legitimately
//! move with the thread count (each group pays its own good-network pass)
//! — except `skipped_faults`, which the good run alone decides. The serial
//! baselines share nothing across a group — each fault restores its own
//! latest eligible checkpoint — so *their* counters stay bit-identical at
//! every thread count.
//!
//! The default tests run shortened campaigns on two benchmarks plus a
//! crafted design with genuinely late activation windows (so the
//! prefix-skip and fault-skip paths are actually exercised, not just
//! trivially bypassed); the `--ignored` sweep widens the benchmark set.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    CampaignConfig, CheckpointConfig, Eraser, EvalBackend, FaultSimEngine, ParallelConfig,
    RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};
use eraser::frontend::compile;
use eraser::ir::Design;
use eraser::logic::LogicVec;
use eraser::sim::{Stimulus, StimulusBuilder};

/// The deterministic integer counters of a stats block (timing excluded).
fn counter_key(s: &RedundancyStats) -> [u64; 20] {
    s.clone().counters_mut().map(|(_, v)| *v)
}

fn config(backend: EvalBackend, checkpoint: CheckpointConfig) -> CampaignConfig {
    CampaignConfig {
        backend,
        checkpoint,
        ..Default::default()
    }
}

/// Runs the full interval x backend x thread matrix for one engine and
/// asserts coverage-record identity against the non-checkpointed serial
/// run. `per_fault` marks the serial baselines, whose counters must not
/// move with the thread count. Returns the checkpointed one-thread stats
/// (tree backend, interval 8) for caller-side feature assertions.
fn check_engine(
    name: &str,
    engine: impl FaultSimEngine,
    per_fault: bool,
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
) -> RedundancyStats {
    let mut probe_stats = RedundancyStats::default();
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        let base = engine.run(
            design,
            faults,
            stim,
            &config(backend, CheckpointConfig::disabled()),
        );
        for interval in [1usize, 8, 64] {
            let ck = CheckpointConfig::every(interval);
            let serial = engine.run(design, faults, stim, &config(backend, ck));
            assert_eq!(
                base.coverage, serial.coverage,
                "{name} [{backend:?} ckpt={interval}]: coverage records diverged from ckpt-off"
            );
            // Native composition: the same checkpointed campaign with
            // worker threads, i.e. a plan of up to four groups.
            let native4 = engine.run(
                design,
                faults,
                stim,
                &CampaignConfig {
                    parallel: ParallelConfig::with_threads(4),
                    ..config(backend, ck)
                },
            );
            assert_eq!(
                base.coverage, native4.coverage,
                "{name} [{backend:?} ckpt={interval} native x4]: coverage diverged"
            );
            let (a, b) = (&serial.stats, &native4.stats);
            assert_eq!(
                a.skipped_faults, b.skipped_faults,
                "{name} [{backend:?} ckpt={interval}]: the good run alone decides which faults never activate"
            );
            if per_fault {
                assert_eq!(
                    counter_key(a),
                    counter_key(b),
                    "{name} [{backend:?} ckpt={interval}]: per-fault counters moved with the thread count"
                );
            }
            if backend == EvalBackend::Tree && interval == 8 {
                probe_stats = serial.stats.clone();
            }
        }
    }
    probe_stats
}

/// Checks every engine; returns IFsim's checkpointed one-thread stats
/// (tree backend, interval 8) for caller-side feature assertions.
fn check_all_engines(design: &Design, faults: &FaultList, stim: &Stimulus) -> RedundancyStats {
    let probe = check_engine("IFsim", IFsim, true, design, faults, stim);
    check_engine("VFsim", VFsim, true, design, faults, stim);
    check_engine("CfSim", CfSim, false, design, faults, stim);
    check_engine("Eraser", Eraser::full(), false, design, faults, stim);
    probe
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
/// under `en` (asserted late), and the masked high nibble of `m` can never
/// contradict its sa0 faults at all.
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
                // en stays low for a long prefix, then pulses.
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

#[test]
fn late_activation_design_all_engines() {
    let (design, faults, stim) = late_activation_fixture();
    // The checkpointed serial runs must actually exercise the trimming
    // machinery on this design: prefix skips and whole-fault skips.
    let stats = check_all_engines(&design, &faults, &stim);
    assert!(
        stats.skipped_prefix_steps > 0,
        "expected real prefix skips, got {stats:?}"
    );
    assert!(
        stats.skipped_faults > 0,
        "expected never-active faults to be skipped, got {stats:?}"
    );
}

#[test]
fn benchmark_apb() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 40, 80);
    let stats = check_all_engines(&design, &faults, &stim);
    // Not only on the hand-built fixture: activation windows on a Table II
    // design must let the serial baselines skip real prefixes.
    assert!(
        stats.skipped_prefix_steps > 0,
        "APB ckpt=8: activation windows collapsed, got {stats:?}"
    );
}

#[test]
fn benchmark_alu() {
    let (design, faults, stim) = bench_fixture(Benchmark::Alu64, 30, 60);
    check_all_engines(&design, &faults, &stim);
}

/// Full sweep over a wider benchmark set (release CI leg).
#[test]
#[ignore = "slow: run with --ignored in release CI"]
fn benchmark_sweep_full() {
    for bench in [
        Benchmark::Fpu32,
        Benchmark::Sha256Hv,
        Benchmark::SodorCore,
        Benchmark::RiscvMini,
        Benchmark::PicoRv32,
        Benchmark::ConvAcc,
        Benchmark::MipsCpu,
    ] {
        let (design, faults, stim) = bench_fixture(bench, 40, 100);
        check_all_engines(&design, &faults, &stim);
    }
}
