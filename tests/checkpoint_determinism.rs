//! No engine reads the checkpoint interval. Every engine starts every
//! fault at step 0 — IFsim and VFsim one fresh simulator per fault, as
//! the paper's IFsim does, and the concurrent engines (Eraser in every
//! mode, CfSim) one engine per group against one good network — so at
//! every interval and thread count a campaign gives the coverage
//! records (every fault's first-detection step and observing output, not
//! just the detected set) *and* all 20 counters of interval 0. Checked on
//! two benchmarks plus a crafted design with genuinely late activation
//! (late first divergences, and faults that never diverge), and
//! [`BASELINE_GOLDEN`] pins the serial baselines' counters.
//!
//! No engine reads the spec key `eval` either: every RTL node runs on the
//! one RTL evaluator, so `"tree"` and `"tape"` give the same campaign.
//!
//! The `--ignored` sweep widens the benchmark set.

use eraser::baselines::{CfSim, IFsim, VFsim};
use eraser::core::{
    CampaignConfig, CampaignSpec, CheckpointConfig, Eraser, EvalBackend, FaultSimEngine,
    ParallelConfig, RedundancyStats,
};
use eraser::designs::{Benchmark, DesignSource};
use eraser::fault::{generate_faults, FaultList};
use eraser::ir::Design;
use eraser::sim::Stimulus;

mod common;
use common::{bench_fixture, late_activation_fixture};

/// The deterministic integer counters of a stats block (timing excluded).
fn counter_key(s: &RedundancyStats) -> [u64; 20] {
    s.clone().counters_mut().map(|(_, v)| *v)
}

fn config(checkpoint: CheckpointConfig, threads: usize) -> CampaignConfig {
    CampaignConfig {
        checkpoint,
        parallel: ParallelConfig::with_threads(threads),
        ..Default::default()
    }
}

/// Runs the interval x thread matrix for one serial baseline and asserts
/// coverage records and counters identical to its one-thread run at
/// interval 0.
fn check_baseline(
    name: &str,
    engine: impl FaultSimEngine,
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
) {
    let run = |interval, threads| {
        let ck = CheckpointConfig::every(interval);
        engine.run(design, faults, stim, &config(ck, threads))
    };
    let base = run(0, 1);
    for interval in [0usize, 1, 8, 64] {
        for threads in [1, 4] {
            if (interval, threads) == (0, 1) {
                continue;
            }
            let other = run(interval, threads);
            let at = format!("{name} [ckpt={interval} x{threads}]");
            assert_eq!(base.coverage, other.coverage, "{at}: coverage diverged");
            assert_eq!(
                counter_key(&base.stats),
                counter_key(&other.stats),
                "{at}: counters moved"
            );
        }
    }
}

/// Checks both serial baselines.
fn check_baselines(design: &Design, faults: &FaultList, stim: &Stimulus) {
    check_baseline("IFsim", IFsim, design, faults, stim);
    check_baseline("VFsim", VFsim, design, faults, stim);
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
    check_baselines(&design, &faults, &stim);
}

#[test]
fn benchmark_apb() {
    let (design, faults, stim) = bench_fixture(Benchmark::Apb, 40, 80);
    check_baselines(&design, &faults, &stim);
}

#[test]
fn benchmark_alu() {
    let (design, faults, stim) = bench_fixture(Benchmark::Alu64, 30, 60);
    check_baselines(&design, &faults, &stim);
}

/// No engine reads the interval: on the late-activation design (which has
/// late first divergences and faults that never diverge) and on APB, for
/// all five engines, every interval gives the coverage and all 20
/// counters of interval 0, at every thread count.
#[test]
fn no_engine_reads_the_checkpoint_interval() {
    let engines: [(&str, Box<dyn FaultSimEngine>); 5] = [
        ("IFsim", Box::new(IFsim)),
        ("VFsim", Box::new(VFsim)),
        ("CfSim", Box::new(CfSim)),
        ("Eraser", Box::new(Eraser::full())),
        ("Eraser-", Box::new(Eraser::explicit())),
    ];
    for (fixture, (design, faults, stim)) in fixtures() {
        for (name, engine) in &engines {
            for threads in [1, 2, 4] {
                let run = |interval| {
                    let ck = CheckpointConfig::every(interval);
                    engine.run(&design, &faults, &stim, &config(ck, threads))
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

/// No engine reads the spec key `eval`: on APB and the `mac16_gate`
/// netlist, for Eraser in all three modes, IFsim, VFsim and CfSim, a spec
/// with `"eval": "tape"` gives the coverage records and all 20 counters
/// of the same spec with `"eval": "tree"`.
#[test]
fn no_engine_reads_the_eval_key() {
    let engines: [(&str, Box<dyn FaultSimEngine>); 6] = [
        ("Eraser", Box::new(Eraser::full())),
        ("Eraser-", Box::new(Eraser::explicit())),
        ("Eraser0", Box::new(Eraser::none())),
        ("IFsim", Box::new(IFsim)),
        ("VFsim", Box::new(VFsim)),
        ("CfSim", Box::new(CfSim)),
    ];
    let mac16 = DesignSource::fixture("mac16_gate").unwrap();
    let mut fc = mac16.fault_config().clone();
    fc.max_faults = Some(60);
    let fixtures = [
        ("APB", bench_fixture(Benchmark::Apb, 40, 80)),
        (
            "mac16_gate",
            (
                mac16.design().clone(),
                generate_faults(mac16.design(), &fc),
                mac16.stimulus_with_cycles(50),
            ),
        ),
    ];
    let resolve = |eval: &str| {
        let text = format!(r#"{{"design": {{"benchmark": "APB"}}, "eval": "{eval}"}}"#);
        CampaignSpec::from_json(&text).unwrap().resolve()
    };
    let (tree, tape) = (resolve("tree"), resolve("tape"));
    assert_eq!(
        (tree.backend, tape.backend),
        (EvalBackend::Tree, EvalBackend::Tape)
    );
    for (fixture, (design, faults, stim)) in &fixtures {
        for (name, engine) in &engines {
            let on_tree = engine.run(design, faults, stim, &tree);
            let on_tape = engine.run(design, faults, stim, &tape);
            assert!(on_tree.coverage.detected() > 0, "{fixture} {name}");
            assert_eq!(
                on_tree.coverage, on_tape.coverage,
                "{fixture} {name}: coverage moved with `eval`"
            );
            assert_eq!(
                counter_key(&on_tree.stats),
                counter_key(&on_tape.stats),
                "{fixture} {name}: counters moved with `eval`"
            );
        }
    }
}

/// `(fixture/engine/interval, counters in `RedundancyStats::counters_mut`
/// order)`, one thread.
type Row = (&'static str, [u64; 20]);

/// The serial baselines' counters on both fixtures at interval 0 (every
/// interval gives the same, see above): a baseline's plan may group its
/// faults any way, and no counter may move, because each one is a sum
/// over faults of what that fault alone did.
#[rustfmt::skip]
const BASELINE_GOLDEN: &[Row] = &[
    ("lateregs/IFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0]),
    ("lateregs/VFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0]),
    ("APB/IFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0]),
    ("APB/VFsim/ckpt0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0]),
];

#[test]
fn serial_baseline_counters_are_pinned() {
    let engines: [(&str, Box<dyn FaultSimEngine>); 2] =
        [("IFsim", Box::new(IFsim)), ("VFsim", Box::new(VFsim))];
    let mut rows = Vec::new();
    for (fixture, (design, faults, stim)) in fixtures() {
        for (name, engine) in &engines {
            let ck = CheckpointConfig::disabled();
            let res = engine.run(&design, &faults, &stim, &config(ck, 1));
            rows.push((format!("{fixture}/{name}/ckpt0"), counter_key(&res.stats)));
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
