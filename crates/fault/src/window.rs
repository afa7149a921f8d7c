//! The campaign plan: which faults share an engine, and the step that
//! engine starts from.
//!
//! A fault's simulation never depends on which other faults share its
//! engine, and — inside its activation window's soundness rule — not on
//! where the engine starts either. How a universe is cut into groups and
//! where each group starts is therefore pure scheduling policy, and a
//! [`WindowPlan`] is the whole of it: a list of [`WindowShard`] groups in
//! queue order plus the faults that need no simulation at all. Every
//! campaign driver — the concurrent engine and the serial baselines, plain
//! or checkpointed, at any thread count — builds one plan and hands it to
//! the one drain in `eraser-core`. Two constructors:
//!
//! * [`WindowPlan::from_step_zero`] — no good-run data: `n`
//!   [site-affinity](FaultList::partition) groups, all starting at step 0,
//!   nothing skipped. With `n == 1` the single group is the universe
//!   itself, so a one-thread plain campaign is one engine over the
//!   caller's list.
//! * [`WindowPlan::build`] — the two-dimensional schedule. Given the
//!   per-fault [`ActivationWindows`] of one instrumented good replay and
//!   the checkpoint schedule, it
//!   1. drops every fault that provably cannot diverge within the stimulus
//!      ([`ActivationWindows::never_active`]) — undetected by
//!      construction, never simulated;
//!   2. groups the remaining faults by their **latest eligible
//!      checkpoint** ([`ActivationWindows::start_checkpoint`]), walking
//!      the cached window ordering so faults with nearby windows land in
//!      the same group and every group starts as late as the soundness
//!      rule allows;
//!   3. splits oversized groups into fixed-size chunks so the work queue
//!      can balance across workers — whole window groups first, the
//!      intra-group chunks of a heavy window after;
//!   4. orders the groups by descending estimated cost (suffix length ×
//!      fault count) so the queue schedules longest-processing-time
//!      first.
//!
//! The chunking constants of `build` are **fixed** — independent of the
//! worker count — so the same `(faults, windows, checkpoints)` input
//! always yields the identical group set: a checkpointed campaign runs the
//! *same* engines on the same fault groups on one worker or N, which keeps
//! coverage records **and** every redundancy counter bit-identical at any
//! thread count. (The from-step-0 plan is sized by its caller from the
//! thread count; there coverage is thread-invariant and the counters
//! legitimately sum one good-network pass per group.)

use crate::{ActivationWindows, Fault, FaultId, FaultList, FaultShard};

/// Upper bound on shards cut from one plan when the universe is large:
/// enough oversubscription for dynamic balancing on any realistic worker
/// count, few enough that per-shard engine construction stays negligible.
/// Fixed (not derived from the thread count) so the plan — and therefore
/// every merged counter — is identical however many workers execute it.
const MAX_WINDOW_SHARDS: usize = 16;

/// Never split a checkpoint group into chunks smaller than this; tiny
/// shards pay full engine construction for almost no faults.
const MIN_WINDOW_SHARD_FAULTS: usize = 16;

/// One schedulable unit of a [`WindowPlan`]: a fault shard plus where its
/// engine starts.
#[derive(Debug, Clone)]
pub struct WindowShard {
    /// The faults, as an ordinary dense-id shard — engines run it
    /// unchanged and coverage merges through
    /// [`FaultShard::merge_coverage_into`].
    pub shard: FaultShard,
    /// Index into the campaign's checkpoint schedule (the `checkpoints`
    /// slice handed to [`WindowPlan::build`]): every fault in the shard is
    /// restart-eligible there, and it is the latest such checkpoint for
    /// each of them. `None` in a from-step-0 plan: the engine starts from
    /// its own construction-settled state.
    pub checkpoint: Option<usize>,
    /// The stimulus step the shard's engine starts from (the checkpoint's
    /// step) — the number of good-prefix settle steps each member fault
    /// skips.
    pub start: usize,
}

impl WindowShard {
    /// Good-prefix settle steps the whole shard skips: `start` per fault.
    pub fn skipped_prefix_steps(&self) -> u64 {
        self.start as u64 * self.shard.len() as u64
    }
}

/// The schedule of one campaign over one fault universe. See the
/// [module docs](self) for the two constructors and the determinism
/// argument.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// Shards in queue order (descending estimated cost). Disjoint; their
    /// union plus [`skipped`](Self::skipped) is the whole universe.
    pub shards: Vec<WindowShard>,
    /// Faults dropped before simulation: provably inactive within the
    /// stimulus, undetected by construction.
    pub skipped: Vec<FaultId>,
}

impl WindowPlan {
    /// The plan without good-run data: `n` site-affinity groups (at least
    /// one), every engine starting at step 0, nothing skipped. Groups the
    /// cut leaves empty — faults clustered on fewer signals than `n` —
    /// are dropped rather than replayed for zero faults; a single
    /// requested group always stays, so an empty universe still runs its
    /// one (fault-free) engine.
    pub fn from_step_zero(faults: &FaultList, n: usize) -> WindowPlan {
        let mut shards = faults.partition(n);
        if shards.len() > 1 {
            shards.retain(|s| !s.is_empty());
        }
        WindowPlan {
            shards: shards
                .into_iter()
                .map(|shard| WindowShard {
                    shard,
                    checkpoint: None,
                    start: 0,
                })
                .collect(),
            skipped: Vec::new(),
        }
    }

    /// Builds the plan for `faults` from derived `windows` and the
    /// checkpoint schedule `checkpoints` (`(step, fully_defined)` pairs,
    /// ascending by step, step 0 first — the shape the campaign drivers
    /// record).
    pub fn build(
        faults: &FaultList,
        windows: &ActivationWindows,
        checkpoints: &[(usize, bool)],
    ) -> WindowPlan {
        let mut skipped = Vec::new();
        // Bucket survivors by latest eligible checkpoint, walking the
        // cached window ordering so each bucket fills in window order.
        let mut buckets: Vec<Vec<&Fault>> = vec![Vec::new(); checkpoints.len()];
        let mut kept = 0usize;
        for &id in windows.ordered_by_window() {
            if windows.never_active(id) {
                skipped.push(id);
                continue;
            }
            let fault = faults.fault(id);
            buckets[windows.start_checkpoint(fault, checkpoints)].push(fault);
            kept += 1;
        }
        skipped.sort_unstable();
        let target = kept
            .div_ceil(MAX_WINDOW_SHARDS)
            .max(MIN_WINDOW_SHARD_FAULTS);
        let mut shards = Vec::new();
        for (ci, bucket) in buckets.iter().enumerate() {
            for chunk in bucket.chunks(target) {
                // Shards carry faults in ascending global-id order (the
                // FaultShard invariant); the window ordering inside a
                // chunk was only for grouping.
                let mut members: Vec<&Fault> = chunk.to_vec();
                members.sort_by_key(|f| f.id);
                shards.push(WindowShard {
                    shard: FaultShard::from_faults(shards.len(), members),
                    checkpoint: Some(ci),
                    start: checkpoints[ci].0,
                });
            }
        }
        // Longest-processing-time-first queue order: cost ~ remaining
        // stimulus × faults. Deterministic tie-break by (checkpoint,
        // first global id).
        let num_steps = windows.num_steps();
        shards.sort_by_key(|ws| {
            let cost = (num_steps - ws.start.min(num_steps)) * ws.shard.len();
            (
                usize::MAX - cost,
                ws.checkpoint,
                ws.shard.global_ids().first().copied(),
            )
        });
        WindowPlan { shards, skipped }
    }

    /// Total faults scheduled for simulation (universe minus the
    /// never-active drops).
    pub fn scheduled_faults(&self) -> usize {
        self.shards.iter().map(|ws| ws.shard.len()).sum()
    }

    /// Good-prefix settle steps the whole plan skips, summed over every
    /// scheduled fault — the composed campaign's `skipped_prefix_steps`.
    pub fn skipped_prefix_steps(&self) -> u64 {
        self.shards.iter().map(|ws| ws.skipped_prefix_steps()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_faults, FaultListConfig};
    use eraser_frontend::compile;
    use eraser_logic::LogicVec;
    use eraser_sim::{ReplaySim, Simulator, SiteProbe, StimulusBuilder};

    /// A free-running counter whose higher bits activate later: plenty of
    /// distinct windows.
    fn staggered_fixture() -> (eraser_ir::Design, FaultList, ActivationWindows, usize) {
        let design = compile(
            "module m(input wire clk, input wire rst, output reg [7:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 8'h00; else q <= q + 8'h01;
               end
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let clk = design.find_signal("clk").unwrap();
        let rst = design.find_signal("rst").unwrap();
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
        for _ in 0..40 {
            sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 0))]);
        }
        let stim = sb.finish();
        let mut sim = Simulator::new(&design);
        sim.attach_probe(SiteProbe::new(&design, faults.iter().map(|f| f.signal)));
        for (i, step) in stim.steps.iter().enumerate() {
            sim.begin_probe_step(i);
            sim.replay_step(step);
        }
        let probe = sim.take_probe().unwrap();
        let n = stim.steps.len();
        let windows = ActivationWindows::derive(&design, &faults, &probe, n);
        (design, faults, windows, n)
    }

    fn interval_checkpoints(interval: usize, num_steps: usize) -> Vec<(usize, bool)> {
        (0..num_steps)
            .filter(|s| s % interval == 0)
            .map(|s| (s, true))
            .collect()
    }

    #[test]
    fn plan_is_lossless_and_grouped_by_checkpoint() {
        let (_, faults, windows, n) = staggered_fixture();
        let checkpoints = interval_checkpoints(8, n);
        let plan = WindowPlan::build(&faults, &windows, &checkpoints);
        // Lossless: every fault is scheduled exactly once or skipped.
        let mut seen: Vec<FaultId> = plan.skipped.clone();
        for ws in &plan.shards {
            seen.extend_from_slice(ws.shard.global_ids());
            // Every member is eligible at the shard's checkpoint and at no
            // later one.
            let ci = ws.checkpoint.expect("window groups name their checkpoint");
            let (step, defined) = checkpoints[ci];
            assert_eq!(step, ws.start);
            for f in ws.shard.list.iter() {
                let gid = ws.shard.global_id(f.id);
                assert!(windows.eligible_start(gid, step, defined));
                assert_eq!(
                    windows.start_checkpoint(faults.fault(gid), &checkpoints),
                    ci
                );
            }
        }
        seen.sort_unstable();
        let all: Vec<FaultId> = faults.iter().map(|f| f.id).collect();
        assert_eq!(seen, all, "plan lost or duplicated faults");
        assert_eq!(plan.scheduled_faults() + plan.skipped.len(), faults.len());
        // The staggered counter has faults with late windows: some shard
        // must actually start past step 0.
        assert!(
            plan.skipped_prefix_steps() > 0,
            "no shard skipped any prefix: {:?}",
            plan.shards
                .iter()
                .map(|w| (w.start, w.shard.len()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_is_deterministic_and_thread_independent() {
        // The plan has no worker-count input at all; building it twice
        // yields the identical shard sequence.
        let (_, faults, windows, n) = staggered_fixture();
        let checkpoints = interval_checkpoints(4, n);
        let a = WindowPlan::build(&faults, &windows, &checkpoints);
        let b = WindowPlan::build(&faults, &windows, &checkpoints);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.shard.global_ids(), y.shard.global_ids());
            assert_eq!((x.checkpoint, x.start), (y.checkpoint, y.start));
        }
    }

    #[test]
    fn queue_order_is_costliest_first() {
        let (_, faults, windows, n) = staggered_fixture();
        let checkpoints = interval_checkpoints(8, n);
        let plan = WindowPlan::build(&faults, &windows, &checkpoints);
        let cost = |ws: &WindowShard| (n - ws.start) * ws.shard.len();
        assert!(plan.shards.windows(2).all(|p| cost(&p[0]) >= cost(&p[1])));
    }

    #[test]
    fn single_checkpoint_degenerates_to_plain_sharding() {
        // With only the step-0 checkpoint every fault groups there; the
        // plan is then just fixed-size sharding with zero skipped prefix.
        let (_, faults, windows, _) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &[(0, false)]);
        assert_eq!(plan.skipped_prefix_steps(), 0);
        assert!(plan.shards.iter().all(|ws| ws.start == 0));
        assert_eq!(plan.scheduled_faults() + plan.skipped.len(), faults.len());
    }
}
