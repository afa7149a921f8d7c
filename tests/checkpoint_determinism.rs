//! Checkpointed good-state replay is a setting of the serial baselines
//! only. Two contracts, on two benchmarks plus a crafted design with
//! genuinely late activation windows (so the prefix-skip and fault-skip
//! paths are exercised, not just trivially bypassed):
//!
//! 1. **The serial baselines restart each fault from its own latest
//!    eligible checkpoint.** For IFsim and VFsim, every evaluation backend,
//!    checkpoint interval and thread count, coverage is **bit-identical**
//!    (every fault's first-detection step and observing output, not just
//!    the detected set) to the same engine's non-checkpointed run. They
//!    share nothing across a group, so their counters stay bit-identical at
//!    every thread count, and [`BASELINE_GOLDEN`] pins them.
//! 2. **The concurrent engines always start at step 0.** Eraser in `Full`
//!    and `Explicit` mode and CfSim record no good run, take no window plan
//!    and resume from no snapshot, so at every thread count any interval
//!    gives the coverage *and* all 20 counters of interval 0.
//!
//! The `--ignored` sweep widens the benchmark set.

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

fn config(backend: EvalBackend, checkpoint: CheckpointConfig, threads: usize) -> CampaignConfig {
    CampaignConfig {
        backend,
        checkpoint,
        parallel: ParallelConfig::with_threads(threads),
        ..Default::default()
    }
}

/// Runs the interval x backend x thread matrix for one serial baseline and
/// asserts coverage-record identity against its non-checkpointed serial
/// run, and counters that do not move with the thread count. Returns the
/// checkpointed one-thread stats (tree backend, interval 8) for
/// caller-side feature assertions.
fn check_baseline(
    name: &str,
    engine: impl FaultSimEngine,
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
            &config(backend, CheckpointConfig::disabled(), 1),
        );
        for interval in [1usize, 8, 64] {
            let ck = CheckpointConfig::every(interval);
            let serial = engine.run(design, faults, stim, &config(backend, ck, 1));
            assert_eq!(
                base.coverage, serial.coverage,
                "{name} [{backend:?} ckpt={interval}]: coverage records diverged from ckpt-off"
            );
            let native4 = engine.run(design, faults, stim, &config(backend, ck, 4));
            assert_eq!(
                base.coverage, native4.coverage,
                "{name} [{backend:?} ckpt={interval} x4]: coverage diverged"
            );
            assert_eq!(
                counter_key(&serial.stats),
                counter_key(&native4.stats),
                "{name} [{backend:?} ckpt={interval}]: per-fault counters moved with the thread count"
            );
            if backend == EvalBackend::Tree && interval == 8 {
                probe_stats = serial.stats.clone();
            }
        }
    }
    probe_stats
}

/// Checks both serial baselines; returns IFsim's checkpointed one-thread
/// stats (tree backend, interval 8) for caller-side feature assertions.
fn check_baselines(design: &Design, faults: &FaultList, stim: &Stimulus) -> RedundancyStats {
    let probe = check_baseline("IFsim", IFsim, design, faults, stim);
    check_baseline("VFsim", VFsim, design, faults, stim);
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

/// The two fixtures of the default tests, by name.
fn fixtures() -> [(&'static str, (Design, FaultList, Stimulus)); 2] {
    [
        ("lateregs", late_activation_fixture()),
        ("APB", bench_fixture(Benchmark::Apb, 40, 80)),
    ]
}

#[test]
fn late_activation_design_all_engines() {
    let (design, faults, stim) = late_activation_fixture();
    // The checkpointed serial runs must actually exercise the trimming
    // machinery on this design: prefix skips and whole-fault skips.
    let stats = check_baselines(&design, &faults, &stim);
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
    let stats = check_baselines(&design, &faults, &stim);
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
    check_baselines(&design, &faults, &stim);
}

/// A concurrent campaign simulates every fault from step 0 against one
/// good network, so the interval is not one of its inputs: on the
/// late-activation design (which has never-active faults and late
/// windows) and on APB, every interval gives the coverage and all 20
/// counters of interval 0, at every thread count.
#[test]
fn concurrent_engines_ignore_the_checkpoint_interval() {
    let engines: [(&str, Box<dyn FaultSimEngine>); 3] = [
        ("Eraser", Box::new(Eraser::full())),
        ("Eraser-", Box::new(Eraser::explicit())),
        ("CfSim", Box::new(CfSim)),
    ];
    for (fixture, (design, faults, stim)) in fixtures() {
        for (name, engine) in &engines {
            for threads in [1, 2, 4] {
                let run = |interval| {
                    let ck = CheckpointConfig::every(interval);
                    engine.run(
                        &design,
                        &faults,
                        &stim,
                        &config(EvalBackend::Tree, ck, threads),
                    )
                };
                let off = run(0);
                for interval in [1, 8, 64] {
                    let on = run(interval);
                    assert_eq!(
                        off.coverage, on.coverage,
                        "{fixture} {name} x{threads} ckpt={interval}: coverage moved"
                    );
                    assert_eq!(
                        counter_key(&off.stats),
                        counter_key(&on.stats),
                        "{fixture} {name} x{threads} ckpt={interval}: counters moved"
                    );
                }
            }
        }
    }
}

/// `(fixture/engine/interval, counters in `RedundancyStats::counters_mut`
/// order)`, tree walker, one thread.
type Row = (&'static str, [u64; 20]);

/// The serial baselines' counters on both fixtures: a baseline's plan may
/// group its faults any way, and no counter may move, because each one is
/// a sum over faults of what that fault alone did.
#[rustfmt::skip]
const BASELINE_GOLDEN: &[Row] = &[
    ("lateregs/IFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0]),
    ("lateregs/IFsim/ckpt1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 790, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("lateregs/IFsim/ckpt8", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 664, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("lateregs/IFsim/ckpt64", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("lateregs/VFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0]),
    ("lateregs/VFsim/ckpt1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 790, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("lateregs/VFsim/ckpt8", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 664, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("lateregs/VFsim/ckpt64", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 60, 0, 0, 0, 0, 0, 0, 80]),
    ("APB/IFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0]),
    ("APB/IFsim/ckpt1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 559, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
    ("APB/IFsim/ckpt8", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
    ("APB/IFsim/ckpt64", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
    ("APB/VFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0]),
    ("APB/VFsim/ckpt1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 559, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
    ("APB/VFsim/ckpt8", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
    ("APB/VFsim/ckpt64", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 28, 17, 0, 0, 0, 0, 0, 0, 76]),
];

#[test]
fn serial_baseline_counters_are_pinned() {
    let engines: [(&str, Box<dyn FaultSimEngine>); 2] =
        [("IFsim", Box::new(IFsim)), ("VFsim", Box::new(VFsim))];
    let mut rows = Vec::new();
    for (fixture, (design, faults, stim)) in fixtures() {
        for (name, engine) in &engines {
            for interval in [0, 1, 8, 64] {
                let ck = CheckpointConfig::every(interval);
                let res = engine.run(&design, &faults, &stim, &config(EvalBackend::Tree, ck, 1));
                rows.push((
                    format!("{fixture}/{name}/ckpt{interval}"),
                    counter_key(&res.stats),
                ));
            }
        }
    }
    let same = rows.len() == BASELINE_GOLDEN.len()
        && rows
            .iter()
            .zip(BASELINE_GOLDEN)
            .all(|(r, g)| r.0 == g.0 && r.1 == g.1);
    if !same {
        let table: String = rows
            .iter()
            .map(|(name, counters)| format!("    (\"{name}\", {counters:?}),\n"))
            .collect();
        panic!("baseline counters moved; the table now reads:\n{table}");
    }
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
        check_baselines(&design, &faults, &stim);
    }
}
