//! The per-fault serial campaign: the closure the IFsim and VFsim
//! baselines hand the shared schedule.
//!
//! The two baselines are one [`Simulator`] under its two settle rules, so
//! they differ only in the constructor they pass here
//! ([`Simulator::with_evaluator`] or [`Simulator::levelized`]).
//! Planning, the worker queue and merging are `eraser-core`'s (see its
//! `schedule` module docs); what is serial here is the work inside a
//! group. One plain good replay records every primary output after each
//! settle step, in one flat trace of `steps × outputs` values. Then, per
//! fault of a group, a fresh simulator takes the force and replays the
//! stimulus from step 0 against the good trace, stopping at the first
//! detection (per-fault dropping) — the paper's IFsim flow, a `force` per
//! fault from time 0. Faults are mutually independent and every fault gets
//! its own simulator, so per-fault results do not depend on group
//! membership, position, or thread count.

use eraser_core::{
    drain_plan, plan_campaign, run_collapsed, CampaignConfig, CampaignResult, RedundancyStats,
};
use eraser_fault::{detectable_mismatch, CoverageReport, Detection, FaultList};
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, Simulator, Steps, Stimulus};

/// Runs a serial (one-simulation-per-fault) campaign under `config`'s
/// collapse and thread settings. `settle_rule` builds a fault-free
/// simulator over an evaluator.
///
/// Of the [`RedundancyStats`], a serial campaign counts dropped faults;
/// the rest stay zero.
pub fn serial_campaign(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    settle_rule: for<'d> fn(Evaluator<'d>) -> Simulator<'d>,
) -> CampaignResult {
    let make_sim = || settle_rule(Evaluator::tree(design));
    let outputs = design.outputs();
    let steps = &stimulus.steps;
    // Only representatives are re-simulated per fault when collapsing.
    run_collapsed(design, faults, &config.collapse, |faults| {
        let mut good = make_sim();
        let mut good_trace = Vec::with_capacity(steps.len() * outputs.len());
        for step in steps {
            good.replay_step(step);
            good_trace.extend(outputs.iter().map(|&o| good.value(o).clone()));
        }
        let threads = config.parallel.effective_threads();
        let plan = plan_campaign(faults, threads);
        drain_plan(&plan, threads, None, |group| {
            let mut coverage = CoverageReport::new(group.len());
            let mut stats = RedundancyStats::default();
            for fault in group.list.iter() {
                let mut sim = make_sim();
                sim.force_bit(fault.signal, fault.bit, fault.stuck.bit());
                if let Some(det) = replay_fault(&mut sim, steps, outputs, &good_trace) {
                    coverage.record(fault.id, det);
                    stats.dropped_faults += 1;
                }
            }
            (coverage, stats)
        })
    })
}

/// Replays every step on a forced simulator, comparing outputs against
/// the good trace after each settle step and stopping at the first
/// detection (the fault is dropped there). `good_trace` holds output `k`
/// after step `s` at `s * outputs.len() + k`.
fn replay_fault(
    sim: &mut Simulator,
    steps: &Steps,
    outputs: &[SignalId],
    good_trace: &[LogicVec],
) -> Option<Detection> {
    let n = outputs.len();
    for (si, step) in steps.iter().enumerate() {
        sim.replay_step(step);
        for (&o, good) in outputs.iter().zip(&good_trace[si * n..(si + 1) * n]) {
            if detectable_mismatch(good, sim.value(o)) {
                return Some(Detection {
                    step: si,
                    output: o,
                });
            }
        }
    }
    None
}
