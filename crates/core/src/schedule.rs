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
//! 3. **Plan** ([`plan_campaign`]). With good-run artifacts: faults group
//!    by latest eligible checkpoint, never-active faults are dropped, and
//!    the chunk sizes ignore the worker count — so one worker and N run
//!    the *identical* engines and every [`RedundancyStats`] counter, not
//!    just coverage, is bit-identical across thread counts at a fixed
//!    interval. Without: every group starts at step 0 — the whole
//!    universe as one group on one thread, `threads × 4` site-affinity
//!    groups otherwise (coverage is thread-invariant; the counters sum
//!    one good-network pass per group).
//! 4. **Drain** ([`drain_plan`]). The groups feed one atomic work queue:
//!    idle workers claim the next group, costliest first, so a heavy
//!    window pre-split into chunks spreads across workers. A group that
//!    names a checkpoint gets its snapshot; eligibility guarantees every
//!    member fault's state there equals its from-zero state, so coverage
//!    records — detection steps and outputs included — are bit-identical
//!    to a from-zero campaign. The drain folds the group reports through
//!    [`FaultShard::merge_coverage_into`](eraser_fault::FaultShard::merge_coverage_into),
//!    sums the counters, and stamps what the plan trimmed
//!    (`skipped_prefix_steps`, `skipped_faults`).
//!
//! The plan is also independent of *who recorded the good run*: artifacts
//! a caller supplies through
//! [`CampaignContext::good_run`](crate::CampaignContext::good_run) yield
//! bit-identical coverage and counters to recording them in-line, because
//! plan and engines are built from the same data either way. (Counters
//! legitimately differ between a checkpointed and a plain run — each group
//! evaluates its own good suffix — which is the measured trade
//! `skipped_prefix_steps` quantifies.)

use crate::campaign::CampaignConfig;
use crate::checkpoint::CheckpointConfig;
use crate::parallel::run_queue;
use crate::progress::CampaignProgress;
use crate::stats::RedundancyStats;
use eraser_fault::{ActivationWindows, CoverageReport, FaultList, WindowPlan, WindowShard};
use eraser_ir::{Design, EvalBackend, TapeProgram};
use eraser_sim::{ReplaySim, SimSnapshot, Simulator, SiteProbe, Stimulus};
use std::time::{Duration, Instant};

/// How many from-step-0 groups each worker thread gets on average.
/// Oversubscription lets fast workers claim queued groups from slow ones
/// (dynamic load balancing) without any per-fault synchronization.
const GROUPS_PER_THREAD: usize = 4;

/// Everything the window plan needs from the instrumented good run: the
/// boundary snapshots and the derived per-fault activation windows. Plain
/// immutable data — shareable read-only across workers, and valid for any
/// campaign on the same (design, fault universe, stimulus, checkpoint
/// interval): see [`record_good_run`].
#[derive(Debug, Clone)]
pub struct GoodRunArtifacts {
    /// `(step, fully_defined, snapshot)` per checkpoint boundary, captured
    /// before applying the boundary step.
    checkpoints: Vec<(usize, bool, SimSnapshot)>,
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
        self.checkpoints.len()
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
    let sim = match tapes {
        Some(tp) => Simulator::with_tapes(design, tp),
        None => Simulator::with_backend(design, EvalBackend::Tree),
    };
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
    let mut checkpoints: Vec<(usize, bool, SimSnapshot)> = Vec::new();
    for (si, step) in stimulus.steps.iter().enumerate() {
        if checkpoint.is_boundary(si) {
            let mut snap = SimSnapshot::new();
            sim.capture_into(&mut snap);
            checkpoints.push((si, sim.fully_defined(), snap));
        }
        sim.begin_probe_step(si);
        sim.replay_step(step);
        after_step(&sim);
    }
    let probe = sim.take_probe().expect("probe attached above");
    let windows = ActivationWindows::derive(design, faults, &probe, stimulus.steps.len());
    GoodRunArtifacts {
        checkpoints,
        windows,
        good_wall: t0.elapsed(),
        steps: stimulus.steps.len(),
    }
}

/// Picks the campaign's plan. With good-run artifacts (see
/// [`is_windowed`]) it is the window plan over their checkpoints, the same
/// at any thread count; without, every group starts at step 0: one group
/// on one thread — exactly the caller's list — else `threads × 4`
/// site-affinity groups, never more than there are faults.
pub fn plan_campaign(
    faults: &FaultList,
    good: Option<&GoodRunArtifacts>,
    threads: usize,
) -> WindowPlan {
    match good {
        Some(good) => {
            let boundaries: Vec<(usize, bool)> =
                good.checkpoints.iter().map(|&(s, d, _)| (s, d)).collect();
            WindowPlan::build(faults, &good.windows, &boundaries)
        }
        None if threads > 1 => {
            WindowPlan::from_step_zero(faults, (threads * GROUPS_PER_THREAD).min(faults.len()))
        }
        None => WindowPlan::from_step_zero(faults, 1),
    }
}

/// What draining a plan produced.
#[derive(Debug, Clone)]
pub struct Drained {
    /// Every group's detection records, folded over the plan's universe.
    pub coverage: CoverageReport,
    /// Every group's counters summed, plus what the plan trimmed.
    /// `time_total` is the aggregate compute time at any thread count:
    /// the good run's wall plus every group's.
    pub stats: RedundancyStats,
    /// Worker threads the queue actually used (1 = inline in the caller).
    pub workers: usize,
}

/// Drains `plan` on up to `threads` workers: `work` runs once per group —
/// handed the snapshot of the group's checkpoint when it names one, which
/// requires the `good` artifacts the plan was built from — and returns the
/// group's shard-local coverage and counters. One worker drains the same
/// group sequence inline: same engines, same counters.
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
            &good.checkpoints[ci].2
        });
        let (coverage, mut stats) = work(group, snapshot);
        stats.skipped_prefix_steps += group.skipped_prefix_steps();
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
