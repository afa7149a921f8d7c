//! One schedule: every campaign is a plan of fault groups drained by one
//! queue.
//!
//! A fault's simulation does not depend on which other faults share its
//! engine — one good network, many difference lists — so *how the universe
//! is cut into groups* is scheduling policy, and it lives in exactly two
//! places: the plan ([`FaultPlan`], in `eraser-fault`) says what the
//! groups are, and the drain here runs them. The concurrent campaign
//! ([`run_campaign_with`](crate::run_campaign_with)) and the serial
//! per-fault baselines (`eraser-baselines`) differ only in the closure
//! they hand the drain: one concurrent
//! [`EraserEngine`](crate::EraserEngine) per group, or one fresh
//! simulator per fault of the group, forced and replayed.
//!
//! 1. **Collapse** ([`run_collapsed`](crate::run_collapsed)) — when on,
//!    everything below sees only the representative list.
//! 2. **Plan** ([`plan_campaign`]). A group costs one good-network pass —
//!    its engine settles the whole fault-free design from step 0 until its
//!    last fault is detected — so there is one sizing rule: **as many
//!    groups as workers**, `min(threads, faults)`, and one cut rule: equal
//!    contiguous chunks *in id order* — site-major, so faults sharing a
//!    site share a group (on one thread: the whole universe as one group).
//! 3. **Start at step 0.** Every engine starts at step 0: the paper's
//!    ERASER simulates every fault from time 0 against one good network,
//!    and its IFsim baseline (Icarus Verilog with a `force` per fault)
//!    runs every fault from time 0. The serial baselines record the good
//!    output trace in one plain replay before the drain; nothing else is
//!    recorded, snapshotted or skipped.
//! 4. **Drain** ([`drain_plan`]). The groups feed one atomic work queue:
//!    idle workers claim the next group. The drain folds the group
//!    reports through [`FaultGroup::merge_coverage_into`] and sums the
//!    counters. It is worker-invariant: one plan drained by one worker or
//!    many gives bit-identical coverage and counters.
//!
//! ```text
//!   concurrent campaign                 serial baselines
//!   ───────────────────                 ────────────────
//!                                       one plain good replay
//!                                         → good output trace
//!                                                   │
//!                                                   ▼
//!   faults in id order                  faults in id order
//!   one chunk per worker                one chunk per worker
//!   ┌──────────┬──────────┐             ┌──────────┬──────────┐
//!   │ {f0..f9} │{f10..f19}│             │ {f0..f9} │{f10..f19}│
//!   └────┬─────┴────┬─────┘             └────┬─────┴────┬─────┘
//!        ▼          ▼                        ▼          ▼
//!   EraserEngine  EraserEngine          per fault: fresh simulator,
//!   from step 0   from step 0           force, replay from step 0
//!        └─ work queue ─┘                    └─ work queue ─┘
//! ```
//!
//! The plan is a pure function of (faults, threads) — no timing input —
//! so coverage and every [`RedundancyStats`] counter repeat exactly from
//! run to run. Coverage is identical at every thread count; the
//! concurrent engines' counters are a function of the plan, and the
//! serial baselines' are per-fault sums that no plan moves.

use crate::campaign::CampaignResult;
use crate::parallel::run_queue;
use crate::progress::CampaignProgress;
use crate::stats::RedundancyStats;
use eraser_fault::{CoverageReport, FaultGroup, FaultList, FaultPlan};
use std::time::Instant;

/// Picks the campaign's plan: one group per worker, `min(threads, faults)`
/// of them, cut in id order (one group on one thread — exactly the
/// caller's list).
pub fn plan_campaign(faults: &FaultList, threads: usize) -> FaultPlan {
    FaultPlan::equal_cut(faults, threads)
}

/// Drains `plan` on up to `threads` workers: `work` runs once per group
/// and returns the group's local coverage and counters. The result folds
/// every group's records over the plan's universe and sums their
/// counters; its `time_total` is the aggregate compute time at any thread
/// count — the sum of the group walls. The drain is worker-invariant: one
/// worker drains the same group sequence inline — same engines, same
/// counters as any other `threads`.
pub fn drain_plan<F>(
    plan: &FaultPlan,
    threads: usize,
    progress: Option<&CampaignProgress>,
    work: F,
) -> CampaignResult
where
    F: Fn(&FaultGroup) -> (CoverageReport, RedundancyStats) + Sync,
{
    let scheduled = plan.scheduled_faults();
    if let Some(p) = progress {
        p.begin(plan.groups.len(), scheduled);
    }
    let workers = threads.clamp(1, plan.groups.len().max(1));
    let results = run_queue(&plan.groups, workers, |group| {
        let group_t0 = Instant::now();
        let (coverage, mut stats) = work(group);
        stats.time_total = group_t0.elapsed();
        if let Some(p) = progress {
            p.group_done(group.len());
        }
        (coverage, stats)
    });

    let mut coverage = CoverageReport::new(scheduled);
    let mut stats = RedundancyStats::default();
    for (group, (group_cov, group_stats)) in plan.groups.iter().zip(&results) {
        group.merge_coverage_into(group_cov, &mut coverage);
        stats.merge(group_stats);
    }
    CampaignResult { coverage, stats }
}
