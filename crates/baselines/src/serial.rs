//! The per-fault serial campaign: the closure the IFsim and VFsim
//! baselines hand the shared schedule.
//!
//! Generic over [`ReplaySim`], so one implementation serves both the
//! event-driven IFsim substrate ([`Simulator`](eraser_sim::Simulator)) and
//! the levelized VFsim substrate ([`CompiledSim`](crate::CompiledSim)).
//! Planning, the worker queue, merging and the skip accounting are
//! `eraser-core`'s (see its `schedule` module docs); what is serial here
//! is the work inside a group. The good replay records every primary
//! output after each settle step (riding the instrumented good run when
//! checkpointing applies); then, per fault of a group, the simulator
//! restores *that fault's own* latest eligible checkpoint
//! ([`GoodRunArtifacts::latest_checkpoint`](eraser_core::GoodRunArtifacts::latest_checkpoint))
//! — nothing is shared across a group here, so nothing ties a fault to the
//! group's start — or starts fresh, without checkpointing; applies the
//! force, and replays the stimulus suffix against the good trace, stopping
//! at the first detection (per-fault dropping). Faults are mutually
//! independent and every fault re-seeds the simulator before injection, so
//! per-fault results — coverage and the skip counters — do not depend on
//! group membership, position, or thread count.

use eraser_core::{
    drain_plan, is_windowed, plan_campaign, record_good_run_on, run_collapsed, CampaignConfig,
    EngineResult, RedundancyStats,
};
use eraser_fault::{detectable_mismatch, CoverageReport, Detection, Fault, FaultList};
use eraser_ir::Design;
use eraser_logic::LogicVec;
use eraser_sim::{ReplaySim, Stimulus};
use std::time::Instant;

/// Runs a serial (one-simulation-per-fault) campaign under `config`'s
/// collapse, checkpoint and thread settings. `make_sim` builds a
/// fault-free simulator; `inject` applies one stuck-at force and settles.
/// Both closures are shared across workers, hence `Fn + Sync`.
///
/// The result carries [`RedundancyStats`] (skipped-prefix / skipped-fault /
/// dropped-fault counters) when checkpointing is enabled.
pub fn serial_campaign<Sim: ReplaySim>(
    name: &str,
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    make_sim: impl Fn() -> Sim + Sync,
    inject: impl Fn(&mut Sim, &Fault) + Sync,
) -> EngineResult {
    let t0 = Instant::now();
    let outputs = design.outputs();
    let steps = &stimulus.steps;
    // Only representatives are re-simulated per fault when collapsing.
    let out = run_collapsed(design, faults, &config.collapse, |faults| {
        let mut good_trace: Vec<Vec<LogicVec>> = Vec::with_capacity(steps.len());
        let mut record_outputs = |sim: &Sim| {
            good_trace.push(
                outputs
                    .iter()
                    .map(|&o| sim.signal_value(o).clone())
                    .collect(),
            )
        };
        let good = if is_windowed(&config.checkpoint, faults, stimulus) {
            Some(record_good_run_on(
                make_sim(),
                design,
                faults,
                stimulus,
                config.checkpoint,
                record_outputs,
            ))
        } else {
            let mut sim = make_sim();
            for step in steps {
                sim.replay_step(step);
                record_outputs(&sim);
            }
            None
        };
        let threads = config.parallel.effective_threads();
        let plan = plan_campaign(faults, good.as_ref(), threads);
        drain_plan(&plan, good.as_ref(), threads, None, |group, _| {
            let mut sim = make_sim();
            let mut coverage = CoverageReport::new(group.shard.len());
            let mut stats = RedundancyStats::default();
            for (i, fault) in group.shard.list.iter().enumerate() {
                let start = match &good {
                    Some(good) => {
                        let (start, snapshot) =
                            good.latest_checkpoint(group.shard.global_id(fault.id));
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
                inject(&mut sim, fault);
                if let Some(det) = replay_fault(&mut sim, steps, start, outputs, &good_trace) {
                    coverage.record(fault.id, det);
                    stats.dropped_faults += 1;
                }
            }
            (coverage, stats)
        })
    });
    let mut result = EngineResult::new(name, out.coverage)
        .with_wall(t0.elapsed())
        .with_threads(out.workers);
    if config.checkpoint.is_enabled() {
        result.stats = Some(out.stats);
    }
    result
}

/// Replays steps `start..` on a forced simulator, comparing outputs
/// against the good trace after each settle step and stopping at the
/// first detection (the fault is dropped there).
fn replay_fault<Sim: ReplaySim>(
    sim: &mut Sim,
    steps: &[Vec<(eraser_ir::SignalId, LogicVec)>],
    start: usize,
    outputs: &[eraser_ir::SignalId],
    good_trace: &[Vec<LogicVec>],
) -> Option<Detection> {
    for (si, step) in steps.iter().enumerate().skip(start) {
        sim.replay_step(step);
        for (oi, &o) in outputs.iter().enumerate() {
            if detectable_mismatch(&good_trace[si][oi], sim.signal_value(o)) {
                return Some(Detection {
                    step: si,
                    output: o,
                });
            }
        }
    }
    None
}
