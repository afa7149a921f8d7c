//! One schedule: every campaign is a plan of fault groups drained by one
//! queue.
//!
//! A fault's simulation does not depend on which other faults share its
//! engine — one good network, many difference lists — so *how the universe
//! is cut into groups* is scheduling policy, and it lives in exactly two
//! places: the plan ([`WindowPlan`], in `eraser-fault`) says what the
//! groups are, and the drain here runs them. The concurrent campaign
//! ([`run_campaign_with`](crate::run_campaign_with)) and the serial
//! per-fault baselines (`eraser-baselines`) differ only in the plan they
//! build and the closure they hand the drain: one concurrent
//! [`EraserEngine`](crate::EraserEngine) per group, or one
//! restore/inject/replay per fault of the group.
//!
//! 1. **Collapse** ([`run_collapsed`](crate::run_collapsed)) — when on,
//!    everything below sees only the representative list.
//! 2. **Plan** ([`plan_campaign`]). A group costs one good-network pass —
//!    its engine settles the whole fault-free design from step 0 until its
//!    last fault is detected — so there is one sizing rule: **as many
//!    groups as workers**, `min(threads, faults)`, and one cut rule: equal
//!    contiguous chunks *in id order* — site-major, so faults sharing a
//!    site share a group (on one thread: the whole universe as one group).
//!    A concurrent campaign always takes this plan, and every group starts
//!    at step 0: the paper's engine simulates every fault from time 0
//!    against one good network, and a checkpointed start would save it
//!    nothing a group's good pass does not already pay for.
//! 3. **Good run, for the serial baselines with checkpointing on**
//!    ([`is_windowed`]). The fault-free design replays the whole stimulus
//!    with a [`SiteProbe`] attached ([`record_good_run_on`]), capturing a
//!    good-state snapshot at each checkpoint boundary (noting whether the
//!    state is fully defined) and the good output trace the baselines
//!    compare against, then derives the per-fault [`ActivationWindows`].
//!    Their plan skips the never-active faults and cuts the rest by the
//!    same rule; each fault then restores
//!    [its own latest eligible checkpoint](GoodRunArtifacts::latest_checkpoint),
//!    since nothing is shared across a serial group.
//! 4. **Drain** ([`drain_plan`]). The groups feed one atomic work queue:
//!    idle workers claim the next group. The drain folds the group
//!    reports through [`WindowShard::merge_coverage_into`], sums the
//!    counters, and stamps the plan's `skipped_faults` and the good run's
//!    `good_run_steps`. It is worker-invariant: one plan drained by one
//!    worker or many gives bit-identical coverage and counters.
//!
//! ```text
//!   concurrent campaign                 serial baselines, checkpointing on
//!   ───────────────────                 ──────────────────────────────────
//!                                       one instrumented good run
//!                                         SiteProbe + snapshot every N steps
//!                                         + good output trace
//!                                                   │ ActivationWindows
//!                                                   ▼
//!   faults in id order                  faults in id order, never-active
//!   one chunk per worker                skipped, one chunk per worker
//!   ┌──────────┬──────────┐             ┌──────────┬──────────┬─────────┐
//!   │ {f0..f9} │{f10..f19}│             │ {f0..f9} │{f11..f19}│ skipped │
//!   └────┬─────┴────┬─────┘             └────┬─────┴────┬─────┴─────────┘
//!        ▼          ▼                        ▼          ▼
//!   EraserEngine  EraserEngine          per fault: restore its own latest
//!   from step 0   from step 0           eligible snapshot, force, replay
//!        └─ work queue ─┘                    └─── work queue ───┘
//! ```
//!
//! The plan is a pure function of (faults, windows, threads) — no timing
//! input — so coverage and every [`RedundancyStats`] counter repeat
//! exactly from run to run. Coverage is identical at every thread count;
//! the concurrent engines' counters are a function of the plan, and the
//! serial baselines' are per-fault sums that no plan moves.

use crate::campaign::{CampaignConfig, CampaignResult};
use crate::checkpoint::CheckpointConfig;
use crate::parallel::run_queue;
use crate::progress::CampaignProgress;
use crate::stats::RedundancyStats;
use eraser_fault::{
    ActivationWindows, CoverageReport, FaultId, FaultList, WindowPlan, WindowShard,
};
use eraser_ir::{Design, TapeProgram};
use eraser_sim::{Evaluator, SimSnapshot, Simulator, SiteProbe, Stimulus, ValueStore};
use std::time::{Duration, Instant};

/// Everything the serial baselines' plan and restarts need from the
/// instrumented good run: the boundary snapshots and the derived
/// per-fault activation windows. Plain immutable data — shareable
/// read-only across workers, and valid for any campaign on the same
/// (design, fault universe, stimulus, checkpoint interval): see
/// [`record_good_run`].
#[derive(Debug, Clone)]
pub struct GoodRunArtifacts {
    /// `(step, fully_defined)` per captured checkpoint boundary,
    /// ascending.
    boundaries: Vec<(usize, bool)>,
    /// Per boundary: the good state captured before applying its step.
    snapshots: Vec<SimSnapshot>,
    /// Per-fault earliest-divergence windows derived from the probe.
    windows: ActivationWindows,
    /// Wall time of the instrumented good run.
    good_wall: Duration,
    /// Stimulus length the artifacts were recorded for, all of it
    /// replayed.
    steps: usize,
}

impl GoodRunArtifacts {
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

/// True when a serial campaign records a good run and restarts its faults
/// from checkpoints: checkpointing on, and something to checkpoint — a
/// non-empty stimulus and fault list. A concurrent campaign never does.
pub fn is_windowed(checkpoint: &CheckpointConfig, faults: &FaultList, stimulus: &Stimulus) -> bool {
    checkpoint.is_enabled() && !stimulus.steps.is_empty() && !faults.is_empty()
}

/// [`record_good_run_on`] on the event-driven simulator, with no observer.
///
/// The artifacts depend only on the design, the fault universe, the
/// stimulus, and the checkpoint interval — not on threads, backend
/// choice, batching, or redundancy mode — so a caller holding those fixed
/// can record once and time the good run apart from any campaign.
pub fn record_good_run(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    tapes: Option<&TapeProgram>,
) -> GoodRunArtifacts {
    let sim = Simulator::with_evaluator(Evaluator::shared(design, tapes));
    record_good_run_on(sim, faults, stimulus, config.checkpoint, |_| {})
}

/// The one instrumented good pass, on a given simulator under either
/// settle rule — `sim` must be freshly built and fault-free: a replay of
/// the whole stimulus with a [`SiteProbe`] attached and a [`SimSnapshot`]
/// captured at every `checkpoint` boundary, then the per-fault
/// [`ActivationWindows`] derived from the probe. `after_step` sees the
/// simulator's values after every settle step, so the serial baselines
/// take the good output trace from this one pass.
pub fn record_good_run_on<'d>(
    sim: Simulator<'d>,
    faults: &FaultList,
    stimulus: &Stimulus,
    checkpoint: CheckpointConfig,
    mut after_step: impl FnMut(&ValueStore),
) -> GoodRunArtifacts {
    let t0 = Instant::now();
    let design = sim.design();
    // Probe + boundary snapshots, captured *before* applying each boundary
    // step (step 0 = the construction-settled state, always eligible).
    let mut sim = sim.attach_probe(SiteProbe::new(design, faults.iter().map(|f| f.signal)));
    let mut boundaries = Vec::new();
    let mut snapshots = Vec::new();
    for (si, step) in stimulus.steps.iter().enumerate() {
        if checkpoint.is_boundary(si) {
            let mut snap = SimSnapshot::new();
            sim.capture_into(&mut snap);
            boundaries.push((si, sim.fully_defined()));
            snapshots.push(snap);
        }
        sim.hook_mut().begin_step(si);
        sim.replay_step(step);
        after_step(sim.values());
    }
    let probe = sim.into_hook();
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
/// of them, cut in id order. With good-run artifacts (the serial
/// baselines under [`is_windowed`]) the never-active faults are skipped
/// first; without (every concurrent campaign) the groups cover the whole
/// list (one group on one thread — exactly the caller's list).
pub fn plan_campaign(
    faults: &FaultList,
    good: Option<&GoodRunArtifacts>,
    threads: usize,
) -> WindowPlan {
    let groups = threads.min(faults.len());
    match good {
        Some(good) => WindowPlan::build(faults, &good.windows, groups),
        None => WindowPlan::from_step_zero(faults, groups),
    }
}

/// Drains `plan` on up to `threads` workers: `work` runs once per group
/// and returns the group's local coverage and counters. The result folds
/// every group's records over the plan's universe and sums their
/// counters, plus the plan's `skipped_faults` and the `good` run's
/// `good_run_steps`; its `time_total` is the aggregate compute time at
/// any thread count — the good run's wall plus every group's. The drain
/// is worker-invariant: one worker drains the same group sequence inline
/// — same engines, same counters as any other `threads`.
pub fn drain_plan<F>(
    plan: &WindowPlan,
    good: Option<&GoodRunArtifacts>,
    threads: usize,
    progress: Option<&CampaignProgress>,
    work: F,
) -> CampaignResult
where
    F: Fn(&WindowShard) -> (CoverageReport, RedundancyStats) + Sync,
{
    let scheduled = plan.scheduled_faults();
    if let Some(p) = progress {
        p.begin(plan.shards.len(), scheduled);
    }
    let workers = threads.clamp(1, plan.shards.len().max(1));
    let results = run_queue(&plan.shards, workers, |group| {
        let group_t0 = Instant::now();
        let (coverage, mut stats) = work(group);
        stats.time_total = group_t0.elapsed();
        if let Some(p) = progress {
            p.group_done(group.len());
        }
        (coverage, stats)
    });

    let mut coverage = CoverageReport::new(scheduled + plan.skipped.len());
    let mut stats = RedundancyStats {
        skipped_faults: plan.skipped.len() as u64,
        good_run_steps: good.map_or(0, |g| g.steps as u64),
        // The shared good run is real compute.
        time_total: good.map_or(Duration::ZERO, |g| g.good_wall),
        ..RedundancyStats::default()
    };
    for (group, (group_cov, group_stats)) in plan.shards.iter().zip(&results) {
        group.merge_coverage_into(group_cov, &mut coverage);
        stats.merge(group_stats);
    }
    CampaignResult { coverage, stats }
}
