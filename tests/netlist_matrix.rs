//! Campaign-matrix parity over the imported Yosys-JSON netlist fixtures.
//!
//! A gate-level netlist must be a first-class fault-simulation target: for
//! every bundled fixture, every engine × backend × thread count ×
//! checkpoint × batch × collapse combination must detect the identical
//! coverage records (first-detection step and observing output per fault)
//! as the serial scalar reference of the same engine and backend.
//!
//! The fixtures run shortened stimuli and capped fault universes so the
//! debug-mode matrix stays fast; the `--ignored` sweep runs them at full
//! length.

use eraser::baselines::{IFsim, VFsim};
use eraser::core::{
    BatchConfig, CampaignConfig, CheckpointConfig, CollapseConfig, Eraser, EvalBackend,
    FaultSimEngine, ParallelConfig,
};
use eraser::designs::{netlist_fixtures, DesignSource};
use eraser::fault::{generate_faults, FaultList};
use eraser::ir::Design;
use eraser::sim::Stimulus;

const THREADS: [usize; 2] = [1, 4];
const INTERVALS: [usize; 2] = [0, 8];

fn fixture_bundle(
    source: &DesignSource,
    cycles: usize,
    max_faults: usize,
) -> (Design, FaultList, Stimulus) {
    let mut fc = source.fault_config().clone();
    fc.max_faults = Some(max_faults.min(fc.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(source.design(), &fc);
    let stim = source.stimulus_with_cycles(cycles);
    (source.design().clone(), faults, stim)
}

fn config(
    backend: EvalBackend,
    threads: usize,
    interval: usize,
    batch: bool,
    collapse: bool,
) -> CampaignConfig {
    CampaignConfig {
        backend,
        parallel: ParallelConfig::with_threads(threads),
        checkpoint: CheckpointConfig::every(interval),
        batch: BatchConfig { enabled: batch },
        collapse: CollapseConfig { enabled: collapse },
        ..Default::default()
    }
}

/// The full knob matrix for one imported design: every combination must
/// reproduce the serial scalar reference coverage of its engine/backend.
fn check_matrix(name: &str, design: &Design, faults: &FaultList, stim: &Stimulus) {
    let engines: [(&str, Box<dyn FaultSimEngine>); 3] = [
        ("Eraser", Box::new(Eraser::full())),
        ("IFsim", Box::new(IFsim)),
        ("VFsim", Box::new(VFsim)),
    ];
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        for (ename, engine) in &engines {
            let reference = engine
                .run(design, faults, stim, &config(backend, 1, 0, false, false))
                .coverage;
            assert!(
                reference.detected() > 0,
                "{name}/{ename}/{backend:?}: reference campaign detected nothing"
            );
            for threads in THREADS {
                for interval in INTERVALS {
                    for batch in [false, true] {
                        for collapse in [false, true] {
                            let result = engine.run(
                                design,
                                faults,
                                stim,
                                &config(backend, threads, interval, batch, collapse),
                            );
                            assert_eq!(
                                reference, result.coverage,
                                "{name}/{ename}/{backend:?} x{threads} ckpt={interval} \
                                 batch={batch} collapse={collapse}: coverage diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn counter8_gate_full_matrix() {
    let source = DesignSource::fixture("counter8_gate").unwrap();
    let (design, faults, stim) = fixture_bundle(&source, 70, 70);
    check_matrix("counter8_gate", &design, &faults, &stim);
}

#[test]
fn mac16_gate_full_matrix() {
    let source = DesignSource::fixture("mac16_gate").unwrap();
    let (design, faults, stim) = fixture_bundle(&source, 50, 60);
    check_matrix("mac16_gate", &design, &faults, &stim);
}

/// An all-1-bit gate-level import is exactly where the batch path must
/// pull its weight: over the full `mac16_gate` universe the groups it
/// forms run above half-full on average. Serial, because fault sharding
/// shrinks each worker's resident-fault pool and starves the groups.
#[test]
fn mac16_gate_batching_fills_lanes() {
    let source = DesignSource::fixture("mac16_gate").unwrap();
    let faults = generate_faults(source.design(), source.fault_config());
    let stim = source.stimulus_with_cycles(20);
    let stats = Eraser::full()
        .run(
            source.design(),
            &faults,
            &stim,
            &config(EvalBackend::Tape, 1, 0, true, false),
        )
        .stats
        .expect("the concurrent engine carries stats");
    assert!(stats.batch_groups > 0, "batching never engaged: {stats:?}");
    let occupancy = stats.batch_lanes as f64 / (stats.batch_groups * 64) as f64;
    assert!(
        occupancy > 0.5,
        "mean lane occupancy {:.1}% (need > 50%): {stats:?}",
        100.0 * occupancy
    );
}

/// Full-length sweep over every fixture (release CI leg).
#[test]
#[ignore = "slow: run with --ignored in release CI"]
fn netlist_fixture_sweep_full_length() {
    for source in netlist_fixtures() {
        let faults = generate_faults(source.design(), source.fault_config());
        let stim = source.stimulus();
        check_matrix(source.name(), source.design(), &faults, &stim);
    }
}
