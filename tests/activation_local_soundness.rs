//! Soundness of the activation-local analysis, checked against the serial
//! reference instead of the engine that relies on it.
//!
//! In `Full` mode Eraser never materializes the force of a stuck-at sited
//! on an activation-local signal (`eraser_ir::analysis::
//! activation_local_signals`). IFsim still forces every fault, those sites
//! included, so it must detect none of them, and Eraser's coverage must
//! equal IFsim's fault for fault.

use eraser::baselines::IFsim;
use eraser::core::{CampaignConfig, Eraser, FaultSimEngine};
use eraser::designs::{netlist_fixtures, Benchmark, DesignSource};
use eraser::fault::{generate_faults, FaultList};
use eraser::ir::analysis::activation_local_signals;

fn sources() -> Vec<DesignSource> {
    let mut sources: Vec<DesignSource> = Benchmark::all()
        .into_iter()
        .map(DesignSource::benchmark)
        .collect();
    sources.extend(netlist_fixtures());
    sources
}

/// Runs IFsim and Eraser over `faults`; returns how many of them sit on an
/// activation-local signal.
fn check(source: &DesignSource, faults: &FaultList, cycles: usize) -> usize {
    let design = source.design();
    let local = activation_local_signals(design);
    let stim = source.stimulus_with_cycles(cycles);
    let config = CampaignConfig::default();
    let serial = IFsim.run(design, faults, &stim, &config).coverage;
    let eraser = Eraser::full().run(design, faults, &stim, &config).coverage;
    assert!(
        serial.same_detected_set(&eraser),
        "{}: IFsim reports {serial} but Eraser reports {eraser}",
        source.name()
    );
    let mut sited = 0;
    for f in faults.iter().filter(|f| local[f.signal.index()]) {
        sited += 1;
        assert!(
            serial.detection(f.id).is_none(),
            "{}: IFsim detects {} bit {} {} on activation-local `{}`",
            source.name(),
            f.id,
            f.bit,
            f.stuck,
            design.signal(f.signal).name
        );
    }
    sited
}

/// About `on` faults on activation-local signals and `off` others from the
/// design's universe, in id order.
fn sample(source: &DesignSource, on: usize, off: usize) -> FaultList {
    let universe = generate_faults(source.design(), source.fault_config());
    let local = activation_local_signals(source.design());
    let n_on = universe.iter().filter(|f| local[f.signal.index()]).count();
    let (step_on, step_off) = (n_on / on + 1, (universe.len() - n_on) / off + 1);
    let (mut seen_on, mut seen_off) = (0, 0);
    universe
        .iter()
        .filter(|f| {
            let (seen, step) = if local[f.signal.index()] {
                (&mut seen_on, step_on)
            } else {
                (&mut seen_off, step_off)
            };
            *seen += 1;
            (*seen - 1) % step == 0
        })
        .copied()
        .collect()
}

#[test]
fn serial_reference_detects_no_fault_on_an_activation_local_signal() {
    let mut sited = 0;
    for source in sources() {
        sited += check(&source, &sample(&source, 24, 32), 80);
    }
    assert!(
        sited >= 40,
        "only {sited} faults on activation-local signals"
    );
}

/// Every design's whole default universe, over half its default stimulus.
#[test]
#[ignore = "slow: serial reference over every universe; run with --release -- --ignored"]
fn serial_reference_detects_no_fault_on_an_activation_local_signal_full_universe() {
    for (i, source) in sources().iter().enumerate() {
        let faults = generate_faults(source.design(), source.fault_config());
        let cycles = Benchmark::all()
            .get(i)
            .map_or(200, |b| b.default_cycles() / 2);
        check(source, &faults, cycles);
    }
}
