//! One schedule: every campaign is a plan of (fault group, start step)
//! drained by one queue.
//!
//! A fault's simulation does not depend on which other faults share its
//! engine — one good network, many difference lists — nor, inside its
//! activation window, on where that engine starts. So *how the universe
//! is cut into groups and where each group starts* is scheduling policy,
//! and it lives in exactly two places: the plan
//! ([`WindowPlan`], in `eraser-fault`) says what the groups are, and the
//! drain here runs them. The concurrent campaign
//! ([`run_campaign_with`](crate::run_campaign_with)) and the serial
//! per-fault baselines (`eraser-baselines`) differ only in the closure
//! they hand the drain: one concurrent [`EraserEngine`](crate::EraserEngine)
//! per group, or one restore/inject/replay per fault of the group.
//!
//! 1. **Collapse** ([`run_collapsed`](crate::run_collapsed)) — when on,
//!    everything below sees only the representative list.
//! 2. **Good run, if checkpointing applies** ([`is_windowed`]). The
//!    fault-free design replays the stimulus once with a [`SiteProbe`]
//!    attached ([`record_good_run_on`]), capturing a [`SimSnapshot`] at
//!    every checkpoint boundary (noting whether the state is fully
//!    defined) and deriving the per-fault [`ActivationWindows`]. The
//!    resulting [`GoodRunArtifacts`] are plain data, shared read-only
//!    across workers.
//! 3. **Plan** ([`plan_campaign`]). A group costs one good-network pass
//!    — its engine settles the whole fault-free design from its start
//!    step until its last fault is detected — so there is one sizing
//!    rule: **as many groups as workers**, `min(threads, faults)`.
//!    Without good-run artifacts these are site-affinity groups from step
//!    0 (on one thread: the whole universe as one group). With them,
//!    never-active faults are dropped and the rest are cut *in window
//!    order* into that many contiguous chunks, each resumed at the latest
//!    checkpoint eligible for all its members: early-activating faults
//!    finish and exit together, late ones start late. The plan is a pure
//!    function of (faults, windows, checkpoints, threads) — no timing
//!    input — so coverage and every [`RedundancyStats`] counter repeat
//!    exactly from run to run. Coverage is identical at every thread
//!    count; the counters are a function of the plan.
//! 4. **Drain** ([`drain_plan`]). The groups feed one atomic work queue:
//!    idle workers claim the next group, costliest first. A group that
//!    names a checkpoint gets its snapshot; eligibility guarantees every
//!    member fault's state there equals its from-zero state, so coverage
//!    records — detection steps and outputs included — are bit-identical
//!    to a from-zero campaign. The drain folds the group reports through
//!    [`FaultShard::merge_coverage_into`](eraser_fault::FaultShard::merge_coverage_into),
//!    sums the counters — `skipped_prefix_steps` among them, reported by
//!    the work closure, which is what decides where a fault starts — and
//!    stamps the plan's `skipped_faults`. It is worker-invariant:
//!    one plan drained by one worker or many gives bit-identical coverage
//!    and counters.
//!
//! A concurrent engine stops as soon as its last fault is detected and
//! dropped ([`EraserEngine::run`](crate::EraserEngine::run)), so a group's
//! good-network pass is as long as its slowest fault needs, not as long as
//! the stimulus. The serial baselines do not share an engine across a
//! group, so they need not share a start either: each fault restores
//! [its own latest eligible checkpoint](GoodRunArtifacts::latest_checkpoint).
//!
//! The plan is also independent of *who recorded the good run*: artifacts
//! a caller supplies through
//! [`CampaignContext::good_run`](crate::CampaignContext::good_run) yield
//! bit-identical coverage and counters to recording them in-line, because
//! plan and engines are built from the same data either way. (Counters
//! legitimately differ between a checkpointed and a plain run — different
//! groups, different starts — which is the measured trade
//! `skipped_prefix_steps` quantifies.)

use crate::campaign::CampaignConfig;
use crate::checkpoint::CheckpointConfig;
use crate::parallel::run_queue;
use crate::progress::CampaignProgress;
use crate::stats::RedundancyStats;
use eraser_fault::{
    ActivationWindows, CoverageReport, FaultId, FaultList, WindowPlan, WindowShard,
};
use eraser_ir::{Design, TapeProgram};
use eraser_sim::{Evaluator, ReplaySim, SimSnapshot, Simulator, SiteProbe, Stimulus};
use std::time::{Duration, Instant};

/// Everything the window plan needs from the instrumented good run: the
/// boundary snapshots and the derived per-fault activation windows. Plain
/// immutable data — shareable read-only across workers, and valid for any
/// campaign on the same (design, fault universe, stimulus, checkpoint
/// interval): see [`record_good_run`].
#[derive(Debug, Clone)]
pub struct GoodRunArtifacts {
    /// `(step, fully_defined)` per checkpoint boundary, ascending — the
    /// schedule the window plan indexes.
    boundaries: Vec<(usize, bool)>,
    /// Per boundary: the good state captured before applying its step.
    snapshots: Vec<SimSnapshot>,
    /// Per-fault earliest-divergence windows derived from the probe.
    windows: ActivationWindows,
    /// Wall time of the instrumented good run.
    good_wall: Duration,
    /// Stimulus length the artifacts were recorded for.
    steps: usize,
}

impl GoodRunArtifacts {
    /// The stimulus length (in settle steps) the good run replayed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// How many boundary snapshots were captured.
    pub fn num_checkpoints(&self) -> usize {
        self.boundaries.len()
    }

    /// The latest checkpoint `fault` is restart-eligible at, as `(step,
    /// snapshot)` — where a per-fault serial replay of it starts. `fault`
    /// is an id of the universe the good run was recorded over.
    pub fn latest_checkpoint(&self, fault: FaultId) -> (usize, &SimSnapshot) {
        let ci = self.windows.start_checkpoint(fault, &self.boundaries);
        (self.boundaries[ci].0, &self.snapshots[ci])
    }
}

/// True when a campaign takes the checkpointed window plan: checkpointing
/// on, and something to checkpoint — a non-empty stimulus and fault list.
/// Otherwise every engine starts at step 0 and no good run is recorded.
pub fn is_windowed(checkpoint: &CheckpointConfig, faults: &FaultList, stimulus: &Stimulus) -> bool {
    checkpoint.is_enabled() && !stimulus.steps.is_empty() && !faults.is_empty()
}

/// Runs the instrumented good pass on the event-driven simulator: one
/// fault-free replay with a [`SiteProbe`] attached, a [`SimSnapshot`]
/// captured at every `config.checkpoint` boundary, and the per-fault
/// [`ActivationWindows`] derived from the probe.
///
/// The artifacts depend only on the design, the fault universe, the
/// stimulus, and the checkpoint interval — not on threads, backend
/// choice, batching, or redundancy mode — so a caller holding those fixed
/// (the benchmark, timing the good run apart from the fault phase) can
/// record once and hand the same artifacts to any number of campaigns
/// through [`CampaignContext::good_run`](crate::CampaignContext::good_run).
pub fn record_good_run(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    tapes: Option<&TapeProgram>,
) -> GoodRunArtifacts {
    let sim = Simulator::with_evaluator(Evaluator::shared(design, tapes));
    record_good_run_on(sim, design, faults, stimulus, config.checkpoint, |_| {})
}

/// [`record_good_run`] on any replay substrate — `sim` must be freshly
/// built and fault-free. `after_step` sees the simulator after every
/// settle step, so a driver that also needs the good output trace takes
/// it from this one pass.
pub fn record_good_run_on<S: ReplaySim>(
    mut sim: S,
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    checkpoint: CheckpointConfig,
    mut after_step: impl FnMut(&S),
) -> GoodRunArtifacts {
    let t0 = Instant::now();
    // Probe + boundary snapshots, captured *before* applying each boundary
    // step (step 0 = the construction-settled state, always eligible).
    sim.attach_probe(SiteProbe::new(design, faults.iter().map(|f| f.signal)));
    let mut boundaries = Vec::new();
    let mut snapshots = Vec::new();
    for (si, step) in stimulus.steps.iter().enumerate() {
        if checkpoint.is_boundary(si) {
            let mut snap = SimSnapshot::new();
            sim.capture_into(&mut snap);
            boundaries.push((si, sim.fully_defined()));
            snapshots.push(snap);
        }
        sim.begin_probe_step(si);
        sim.replay_step(step);
        after_step(&sim);
    }
    let probe = sim.take_probe().expect("probe attached above");
    let windows = ActivationWindows::derive(design, faults, &probe, stimulus.steps.len());
    GoodRunArtifacts {
        boundaries,
        snapshots,
        windows,
        good_wall: t0.elapsed(),
        steps: stimulus.steps.len(),
    }
}

/// Picks the campaign's plan: one group per worker, `min(threads, faults)`
/// of them. With good-run artifacts (see [`is_windowed`]) it is the window
/// plan over their checkpoints — never-active faults dropped, the rest cut
/// in window order; without, site-affinity groups that all start at step 0
/// (one group on one thread — exactly the caller's list).
pub fn plan_campaign(
    faults: &FaultList,
    good: Option<&GoodRunArtifacts>,
    threads: usize,
) -> WindowPlan {
    let groups = threads.min(faults.len());
    match good {
        Some(good) => WindowPlan::build(faults, &good.windows, &good.boundaries, groups),
        None => WindowPlan::from_step_zero(faults, groups),
    }
}

/// What draining a plan produced.
#[derive(Debug, Clone)]
pub struct Drained {
    /// Every group's detection records, folded over the plan's universe.
    pub coverage: CoverageReport,
    /// Every group's counters summed, plus the plan's `skipped_faults`.
    /// `time_total` is the aggregate compute time at any thread count:
    /// the good run's wall plus every group's.
    pub stats: RedundancyStats,
    /// Worker threads the queue actually used (1 = inline in the caller).
    pub workers: usize,
}

/// Drains `plan` on up to `threads` workers: `work` runs once per group —
/// handed the snapshot of the group's checkpoint when it names one, which
/// requires the `good` artifacts the plan was built from — and returns the
/// group's shard-local coverage and counters, `skipped_prefix_steps`
/// included (the good-prefix steps its faults did not replay). The drain is
/// worker-invariant: one worker drains the same group sequence inline —
/// same engines, same counters as any other `threads`.
pub fn drain_plan<F>(
    plan: &WindowPlan,
    good: Option<&GoodRunArtifacts>,
    threads: usize,
    progress: Option<&CampaignProgress>,
    work: F,
) -> Drained
where
    F: Fn(&WindowShard, Option<&SimSnapshot>) -> (CoverageReport, RedundancyStats) + Sync,
{
    let scheduled = plan.scheduled_faults();
    if let Some(p) = progress {
        p.begin(plan.shards.len(), scheduled);
    }
    let workers = threads.clamp(1, plan.shards.len().max(1));
    let results = run_queue(&plan.shards, workers, |group| {
        let group_t0 = Instant::now();
        let snapshot = group.checkpoint.map(|ci| {
            let good = good.expect("a plan that names checkpoints comes with its good run");
            &good.snapshots[ci]
        });
        let (coverage, mut stats) = work(group, snapshot);
        stats.time_total = group_t0.elapsed();
        if let Some(p) = progress {
            p.group_done(group.shard.len());
        }
        (coverage, stats)
    });

    let mut coverage = CoverageReport::new(scheduled + plan.skipped.len());
    let mut stats = RedundancyStats {
        skipped_faults: plan.skipped.len() as u64,
        // The shared good run is real compute. (For caller-supplied
        // artifacts the charged wall is the original recording's — the
        // semantic counters are what must stay bit-identical.)
        time_total: good.map_or(Duration::ZERO, |g| g.good_wall),
        ..RedundancyStats::default()
    };
    for (group, (group_cov, group_stats)) in plan.shards.iter().zip(&results) {
        group.shard.merge_coverage_into(group_cov, &mut coverage);
        stats.merge(group_stats);
    }
    Drained {
        coverage,
        stats,
        workers,
    }
}
