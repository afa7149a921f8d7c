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
//! the one drain in `eraser-core`.
//!
//! **A group costs one good-network pass**, so there is one sizing rule:
//! the caller asks for as many groups as it has workers (never more than
//! there are faults), and both constructors cut *at most* that many.
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
//!   2. cuts the remaining faults, **in window order**, into `n`
//!      contiguous chunks of equal size (±1), so faults that activate
//!      early share an engine — they are detected, dropped and the engine
//!      stops together — and faults that activate late share one that
//!      starts late;
//!   3. starts each chunk at the **latest checkpoint eligible for all its
//!      members** ([`ActivationWindows::eligible_start`]);
//!   4. orders the groups by descending estimated cost (suffix length ×
//!      fault count) so the queue schedules longest-processing-time
//!      first.
//!
//! Both plans are a pure function of their inputs — `(faults, n)`, or
//! `(faults, windows, checkpoints, n)` — with no timing input, so a
//! campaign's coverage **and** redundancy counters repeat exactly from run
//! to run. Coverage is the same for every `n`; the counters are a function
//! of the plan (each group pays its own good-network pass), and draining
//! one plan on one worker or many gives bit-identical counters.

use crate::{ActivationWindows, Fault, FaultId, FaultList, FaultShard};

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
    /// restart-eligible there, and no later checkpoint is eligible for all
    /// of them. `None` in a from-step-0 plan: the engine starts from its
    /// own construction-settled state.
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

/// The schedule of one campaign over one fault universe. See the module
/// docs of `window.rs` for the two constructors and the determinism
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
    /// record), cut into at most `n` groups (at least one, while any fault
    /// is left to simulate).
    pub fn build(
        faults: &FaultList,
        windows: &ActivationWindows,
        checkpoints: &[(usize, bool)],
        n: usize,
    ) -> WindowPlan {
        let (mut skipped, kept): (Vec<FaultId>, Vec<FaultId>) = windows
            .ordered_by_window()
            .iter()
            .partition(|&&id| windows.never_active(id));
        skipped.sort_unstable();
        // Equal (±1) contiguous chunks of the window ordering.
        let n = n.max(1).min(kept.len());
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let chunk = &kept[i * kept.len() / n..(i + 1) * kept.len() / n];
            let ci = checkpoints
                .iter()
                .rposition(|&(step, defined)| {
                    chunk
                        .iter()
                        .all(|&id| windows.eligible_start(id, step, defined))
                })
                .expect("checkpoint 0 is always eligible");
            // Shards carry faults in ascending global-id order (the
            // FaultShard invariant); the window ordering was only for
            // the cut.
            let mut members: Vec<&Fault> = chunk.iter().map(|&id| faults.fault(id)).collect();
            members.sort_by_key(|f| f.id);
            shards.push(WindowShard {
                shard: FaultShard::from_faults(shards.len(), members),
                checkpoint: Some(ci),
                start: checkpoints[ci].0,
            });
        }
        // Longest-processing-time-first queue order: cost ~ remaining
        // stimulus × faults. The sort is stable, so ties keep window
        // order.
        let num_steps = windows.num_steps();
        shards.sort_by_key(|ws| {
            std::cmp::Reverse((num_steps - ws.start.min(num_steps)) * ws.shard.len())
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
    use eraser_sim::{Simulator, SiteProbe, StimulusBuilder};

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

    /// Every group start the plan may pick, and whether all of `ws`'s
    /// members are eligible there.
    fn all_eligible(
        windows: &ActivationWindows,
        ws: &WindowShard,
        (step, defined): (usize, bool),
    ) -> bool {
        ws.shard
            .global_ids()
            .iter()
            .all(|&gid| windows.eligible_start(gid, step, defined))
    }

    #[test]
    fn plan_is_lossless_and_cut_into_at_most_n_groups() {
        let (_, faults, windows, steps) = staggered_fixture();
        let checkpoints = interval_checkpoints(8, steps);
        let all: Vec<FaultId> = faults.iter().map(|f| f.id).collect();
        for n in [1, 2, 3, 5, faults.len(), faults.len() + 7] {
            let plan = WindowPlan::build(&faults, &windows, &checkpoints, n);
            let scheduled = plan.scheduled_faults();
            assert_eq!(plan.shards.len(), n.min(scheduled), "n={n}");
            // Equal cut: group sizes differ by at most one.
            let sizes: Vec<usize> = plan.shards.iter().map(|ws| ws.shard.len()).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            // Lossless: every fault is scheduled exactly once or skipped.
            let mut seen: Vec<FaultId> = plan.skipped.clone();
            for ws in &plan.shards {
                seen.extend_from_slice(ws.shard.global_ids());
                // Every member is eligible at the group's checkpoint, and
                // no later checkpoint is eligible for all of them.
                let ci = ws.checkpoint.expect("window groups name their checkpoint");
                assert_eq!(checkpoints[ci].0, ws.start);
                assert!(all_eligible(&windows, ws, checkpoints[ci]));
                for &later in &checkpoints[ci + 1..] {
                    assert!(!all_eligible(&windows, ws, later), "n={n}: {later:?}");
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, all, "n={n}: plan lost or duplicated faults");
            assert_eq!(scheduled + plan.skipped.len(), faults.len());
        }
        // The staggered counter has faults with late windows: cut finely
        // enough, the late chunks must actually start past step 0.
        let plan = WindowPlan::build(&faults, &windows, &checkpoints, 4);
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
    fn one_group_is_the_universe_minus_never_active_faults() {
        let (_, faults, windows, steps) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &interval_checkpoints(8, steps), 1);
        assert_eq!(plan.shards.len(), 1);
        let expected: Vec<FaultId> = faults
            .iter()
            .map(|f| f.id)
            .filter(|&id| !windows.never_active(id))
            .collect();
        assert_eq!(plan.shards[0].shard.global_ids(), &expected[..]);
        assert!(plan.skipped.iter().all(|&id| windows.never_active(id)));
        assert_eq!(expected.len() + plan.skipped.len(), faults.len());
    }

    #[test]
    fn groups_are_contiguous_in_window_order() {
        // Every fault of an earlier chunk opens no later than every fault
        // of the next one: early-activating faults finish together, late
        // ones start late.
        let (_, faults, windows, steps) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &interval_checkpoints(4, steps), 3);
        let span = |ws: &WindowShard| {
            let w = ws.shard.global_ids().iter().map(|&g| windows.window(g));
            (w.clone().min().unwrap(), w.max().unwrap())
        };
        let mut spans: Vec<(usize, usize)> = plan.shards.iter().map(span).collect();
        spans.sort_unstable();
        assert!(spans.windows(2).all(|p| p[0].1 <= p[1].0), "{spans:?}");
    }

    #[test]
    fn plan_is_deterministic() {
        // A pure function of (faults, windows, checkpoints, n): building
        // it twice yields the identical shard sequence.
        let (_, faults, windows, steps) = staggered_fixture();
        let checkpoints = interval_checkpoints(4, steps);
        let a = WindowPlan::build(&faults, &windows, &checkpoints, 3);
        let b = WindowPlan::build(&faults, &windows, &checkpoints, 3);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.shard.global_ids(), y.shard.global_ids());
            assert_eq!((x.checkpoint, x.start), (y.checkpoint, y.start));
        }
    }

    #[test]
    fn queue_order_is_costliest_first() {
        let (_, faults, windows, steps) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &interval_checkpoints(8, steps), 4);
        let cost = |ws: &WindowShard| (steps - ws.start) * ws.shard.len();
        assert!(plan.shards.windows(2).all(|p| cost(&p[0]) >= cost(&p[1])));
    }

    #[test]
    fn single_checkpoint_degenerates_to_plain_sharding() {
        // With only the step-0 checkpoint every group starts there; the
        // plan is then just an equal cut with zero skipped prefix.
        let (_, faults, windows, _) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &[(0, false)], 3);
        assert_eq!(plan.skipped_prefix_steps(), 0);
        assert!(plan.shards.iter().all(|ws| ws.start == 0));
        assert_eq!(plan.scheduled_faults() + plan.skipped.len(), faults.len());
    }
}
