//! The per-fault serial campaign: the closure the IFsim and VFsim
//! baselines hand the shared schedule.
//!
//! The two baselines are one [`Simulator`] under its two settle rules, so
//! they differ only in the constructor they pass here
//! ([`Simulator::with_evaluator`] or [`Simulator::levelized`]).
//! Planning, the worker queue, merging and the skip accounting are
//! `eraser-core`'s (see its `schedule` module docs); what is serial here
//! is the work inside a group. The good replay records every primary
//! output after each settle step (riding the instrumented good run when
//! checkpointing applies, which also skips the never-active faults); then,
//! per fault of a group, the simulator restores *that fault's own* latest
//! eligible checkpoint
//! ([`GoodRunArtifacts::latest_checkpoint`](eraser_core::GoodRunArtifacts::latest_checkpoint))
//! — nothing is shared across a group here, so a group has no start of
//! its own — or starts fresh, without checkpointing; applies the force,
//! and replays the stimulus suffix against the good trace, stopping at the
//! first detection (per-fault dropping). Faults are mutually independent
//! and every fault re-seeds the simulator before injection, so per-fault
//! results — coverage and the skip counters — do not depend on group
//! membership, position, or thread count. Checkpointing is a strength of
//! this substitution alone: the concurrent engine starts every fault at
//! step 0 and ignores the interval.

use eraser_core::{
    drain_plan, is_windowed, plan_campaign, record_good_run_on, run_collapsed, CampaignConfig,
    CampaignResult, RedundancyStats, TapeProgram,
};
use eraser_fault::{detectable_mismatch, CoverageReport, Detection, FaultList};
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, Simulator, Stimulus, ValueStore};

/// Runs a serial (one-simulation-per-fault) campaign under `config`'s
/// backend, collapse, checkpoint and thread settings. `settle_rule` builds
/// a fault-free simulator over an evaluator; on the tape backend every
/// simulator shares one campaign-wide compilation.
///
/// Of the [`RedundancyStats`], a serial campaign counts dropped faults,
/// plus skipped-prefix steps and skipped faults when checkpointing is
/// enabled; the rest stay zero.
pub fn serial_campaign(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    settle_rule: for<'d> fn(Evaluator<'d>) -> Simulator<'d>,
) -> CampaignResult {
    let tapes = TapeProgram::for_backend(design, config.backend);
    let make_sim = || settle_rule(Evaluator::shared(design, tapes.as_ref()));
    let outputs = design.outputs();
    let steps = &stimulus.steps;
    // Only representatives are re-simulated per fault when collapsing.
    run_collapsed(design, faults, &config.collapse, |faults| {
        let mut good_trace: Vec<Vec<LogicVec>> = Vec::with_capacity(steps.len());
        let mut record_outputs = |values: &ValueStore| {
            good_trace.push(outputs.iter().map(|&o| values.get(o).clone()).collect())
        };
        let good = if is_windowed(&config.checkpoint, faults, stimulus) {
            Some(record_good_run_on(
                make_sim(),
                faults,
                stimulus,
                config.checkpoint,
                record_outputs,
            ))
        } else {
            let mut sim = make_sim();
            for step in steps {
                sim.replay_step(step);
                record_outputs(sim.values());
            }
            None
        };
        let threads = config.parallel.effective_threads();
        let plan = plan_campaign(faults, good.as_ref(), threads);
        drain_plan(&plan, good.as_ref(), threads, None, |group| {
            let mut sim = make_sim();
            let mut coverage = CoverageReport::new(group.len());
            let mut stats = RedundancyStats::default();
            for (i, fault) in group.list.iter().enumerate() {
                let start = match &good {
                    Some(good) => {
                        let (start, snapshot) = good.latest_checkpoint(group.global_id(fault.id));
                        sim.restore_from(snapshot);
                        stats.skipped_prefix_steps += start as u64;
                        start
                    }
                    None => {
                        if i > 0 {
                            sim = make_sim();
                        }
                        0
                    }
                };
                sim.force_bit(fault.signal, fault.bit, fault.stuck.bit());
                if let Some(det) = replay_fault(&mut sim, steps, start, outputs, &good_trace) {
                    coverage.record(fault.id, det);
                    stats.dropped_faults += 1;
                }
            }
            (coverage, stats)
        })
    })
}

/// Replays steps `start..` on a forced simulator, comparing outputs
/// against the good trace after each settle step and stopping at the
/// first detection (the fault is dropped there).
fn replay_fault(
    sim: &mut Simulator,
    steps: &[Vec<(SignalId, LogicVec)>],
    start: usize,
    outputs: &[SignalId],
    good_trace: &[Vec<LogicVec>],
) -> Option<Detection> {
    for (si, step) in steps.iter().enumerate().skip(start) {
        sim.replay_step(step);
        for (oi, &o) in outputs.iter().enumerate() {
            if detectable_mismatch(&good_trace[si][oi], sim.value(o)) {
                return Some(Detection {
                    step: si,
                    output: o,
                });
            }
        }
    }
    None
}
