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
//! there are faults), and both constructors cut *at most* that many. There
//! is also **one cut rule**: an ordering of the faults is cut into `n`
//! contiguous chunks of equal size (±1). The constructors differ only in
//! the ordering they cut.
//!
//! * [`WindowPlan::from_step_zero`] — no good-run data: the list cut in
//!   **id order**, all groups starting at step 0, nothing skipped. Ids are
//!   site-major ([`generate_faults`](crate::generate_faults)), so faults
//!   sharing a site share a group — and with it their per-signal diff
//!   lists — except where a cut falls inside a site's run. With `n == 1`
//!   the single group is the universe itself, so a one-thread plain
//!   campaign is one engine over the caller's list.
//! * [`WindowPlan::build`] — the two-dimensional schedule. Given the
//!   per-fault [`ActivationWindows`] of one instrumented good replay and
//!   the checkpoint schedule, it
//!   1. drops every fault that provably cannot diverge within the stimulus
//!      ([`ActivationWindows::never_active`]) — undetected by
//!      construction, never simulated;
//!   2. cuts the remaining faults **in window order**, so faults that
//!      activate early share an engine — they are detected, dropped and
//!      the engine stops together — and faults that activate late share
//!      one that starts late;
//!   3. starts each chunk at the **latest checkpoint eligible for all its
//!      members** ([`ActivationWindows::eligible_start`]);
//!   4. orders the groups by descending estimated cost (suffix length ×
//!      fault count) so the queue schedules longest-processing-time
//!      first.
//!
//! Either way a group holds its members in ascending global-id order —
//! itself site-major — with dense local ids, so any engine runs it as it
//! would a whole universe, and its coverage folds back through the one
//! reduction rule, [`WindowShard::merge_coverage_into`].
//!
//! Both plans are a pure function of their inputs — `(faults, n)`, or
//! `(faults, windows, checkpoints, n)` — with no timing input, so a
//! campaign's coverage **and** redundancy counters repeat exactly from run
//! to run. Coverage is the same for every `n`; the counters are a function
//! of the plan (each group pays its own good-network pass), and draining
//! one plan on one worker or many gives bit-identical counters.

use crate::{ActivationWindows, CoverageReport, Fault, FaultId, FaultList};

/// One schedulable unit of a [`WindowPlan`]: a group of faults plus where
/// its engine starts.
#[derive(Debug, Clone)]
pub struct WindowShard {
    /// The group's faults with dense local ids (`0..len`), in ascending
    /// global-id order. Engines run this list exactly as they would a
    /// whole universe.
    pub list: FaultList,
    /// Local id index -> global [`FaultId`], ascending.
    global: Vec<FaultId>,
    /// Index into the campaign's checkpoint schedule (the `checkpoints`
    /// slice handed to [`WindowPlan::build`]): every fault in the group is
    /// restart-eligible there, and no later checkpoint is eligible for all
    /// of them. `None` in a from-step-0 plan: the engine starts from its
    /// own construction-settled state.
    pub checkpoint: Option<usize>,
    /// The stimulus step the group's engine starts from (the checkpoint's
    /// step) — the number of good-prefix settle steps each member fault
    /// skips.
    pub start: usize,
}

impl WindowShard {
    /// A group of universe faults, given in ascending global-id order.
    fn new(members: Vec<&Fault>, checkpoint: Option<usize>, start: usize) -> WindowShard {
        debug_assert!(members.windows(2).all(|p| p[0].id < p[1].id));
        WindowShard {
            global: members.iter().map(|f| f.id).collect(),
            list: members.into_iter().copied().collect(),
            checkpoint,
            start,
        }
    }

    /// Number of faults in the group.
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True if the group holds no faults — only the single group of an
    /// empty universe.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// The global id of a group-local fault.
    pub fn global_id(&self, local: FaultId) -> FaultId {
        self.global[local.index()]
    }

    /// All global ids covered by this group, in local-id order.
    pub fn global_ids(&self) -> &[FaultId] {
        &self.global
    }

    /// Good-prefix settle steps the whole group skips: `start` per fault.
    pub fn skipped_prefix_steps(&self) -> u64 {
        self.start as u64 * self.len() as u64
    }

    /// Records every detection of a group-local report directly into a
    /// global-universe accumulator under its global id — the single
    /// reduction rule of every campaign driver: O(group size) per group,
    /// no intermediate full-universe report. Groups of one plan are
    /// disjoint, so the accumulated result is independent of merge order.
    ///
    /// # Panics
    ///
    /// Panics if `local` was not produced over this group's fault list.
    pub fn merge_coverage_into(&self, local: &CoverageReport, global: &mut CoverageReport) {
        assert_eq!(
            local.total(),
            self.len(),
            "coverage report covers {} faults, group holds {}",
            local.total(),
            self.len()
        );
        for (li, &gid) in self.global.iter().enumerate() {
            if let Some(d) = local.detection(FaultId(li as u32)) {
                global.record(gid, d);
            }
        }
    }
}

/// The schedule of one campaign over one fault universe. See the module
/// docs of `window.rs` for the two constructors and the determinism
/// argument.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// Groups in queue order (descending estimated cost). Disjoint; their
    /// union plus [`skipped`](Self::skipped) is the whole universe.
    pub shards: Vec<WindowShard>,
    /// Faults dropped before simulation: provably inactive within the
    /// stimulus, undetected by construction.
    pub skipped: Vec<FaultId>,
}

/// The one cut rule: `items` in `n` contiguous chunks of equal size (±1).
fn equal_cut<T>(items: &[T], n: usize) -> impl Iterator<Item = &[T]> {
    (0..n).map(move |i| &items[i * items.len() / n..(i + 1) * items.len() / n])
}

impl WindowPlan {
    /// The plan without good-run data: the list cut in id order into `n`
    /// groups (at least one, at most one per fault), every engine starting
    /// at step 0, nothing skipped. A single group is the caller's list
    /// itself — local id = global id — so an empty universe still runs its
    /// one (fault-free) engine.
    pub fn from_step_zero(faults: &FaultList, n: usize) -> WindowPlan {
        let n = n.clamp(1, faults.len().max(1));
        WindowPlan {
            shards: equal_cut(faults.faults(), n)
                .map(|chunk| WindowShard::new(chunk.iter().collect(), None, 0))
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
        let n = n.max(1).min(kept.len());
        let mut shards: Vec<WindowShard> = equal_cut(&kept, n)
            .map(|chunk| {
                let ci = checkpoints
                    .iter()
                    .rposition(|&(step, defined)| {
                        chunk
                            .iter()
                            .all(|&id| windows.eligible_start(id, step, defined))
                    })
                    .expect("checkpoint 0 is always eligible");
                // Groups hold their faults in ascending global-id order;
                // the window ordering was only for the cut.
                let mut members: Vec<&Fault> = chunk.iter().map(|&id| faults.fault(id)).collect();
                members.sort_by_key(|f| f.id);
                WindowShard::new(members, Some(ci), checkpoints[ci].0)
            })
            .collect();
        // Longest-processing-time-first queue order: cost ~ remaining
        // stimulus × faults. The sort is stable, so ties keep window
        // order.
        let num_steps = windows.num_steps();
        let cost = |ws: &WindowShard| (num_steps - ws.start.min(num_steps)) * ws.len();
        shards.sort_by_key(|ws| std::cmp::Reverse(cost(ws)));
        WindowPlan { shards, skipped }
    }

    /// Total faults scheduled for simulation (universe minus the
    /// never-active drops).
    pub fn scheduled_faults(&self) -> usize {
        self.shards.iter().map(|ws| ws.len()).sum()
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
    use crate::{generate_faults, Detection, FaultListConfig, StuckAt};
    use eraser_frontend::compile;
    use eraser_ir::SignalId;
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
        let mut sim = Simulator::new(&design)
            .attach_probe(SiteProbe::new(&design, faults.iter().map(|f| f.signal)));
        for (i, step) in stim.steps.iter().enumerate() {
            sim.hook_mut().begin_step(i);
            sim.replay_step(step);
        }
        let probe = sim.into_hook();
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
        ws.global_ids()
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
            let sizes: Vec<usize> = plan.shards.iter().map(|ws| ws.len()).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            // Lossless: every fault is scheduled exactly once or skipped.
            let mut seen: Vec<FaultId> = plan.skipped.clone();
            for ws in &plan.shards {
                seen.extend_from_slice(ws.global_ids());
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
            "no group skipped any prefix: {:?}",
            plan.shards
                .iter()
                .map(|w| (w.start, w.len()))
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
        assert_eq!(plan.shards[0].global_ids(), &expected[..]);
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
            let w = ws.global_ids().iter().map(|&g| windows.window(g));
            (w.clone().min().unwrap(), w.max().unwrap())
        };
        let mut spans: Vec<(usize, usize)> = plan.shards.iter().map(span).collect();
        spans.sort_unstable();
        assert!(spans.windows(2).all(|p| p[0].1 <= p[1].0), "{spans:?}");
    }

    #[test]
    fn plan_is_deterministic() {
        // A pure function of (faults, windows, checkpoints, n): building
        // it twice yields the identical group sequence.
        let (_, faults, windows, steps) = staggered_fixture();
        let checkpoints = interval_checkpoints(4, steps);
        let a = WindowPlan::build(&faults, &windows, &checkpoints, 3);
        let b = WindowPlan::build(&faults, &windows, &checkpoints, 3);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.global_ids(), y.global_ids());
            assert_eq!((x.checkpoint, x.start), (y.checkpoint, y.start));
        }
    }

    #[test]
    fn queue_order_is_costliest_first() {
        let (_, faults, windows, steps) = staggered_fixture();
        let plan = WindowPlan::build(&faults, &windows, &interval_checkpoints(8, steps), 4);
        let cost = |ws: &WindowShard| (steps - ws.start) * ws.len();
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

    /// A universe of `n` faults over `sites` signals, numbered the way
    /// `generate_faults` numbers them: by signal, then bit, then polarity.
    fn universe(n: usize, sites: usize) -> FaultList {
        let per_site = n.div_ceil(sites);
        (0..n)
            .map(|i| Fault {
                id: FaultId(0), // reassigned by FromIterator
                signal: SignalId((i / per_site) as u32),
                bit: (i % per_site / 2) as u32,
                stuck: if i % 2 == 0 {
                    StuckAt::Zero
                } else {
                    StuckAt::One
                },
            })
            .collect()
    }

    /// Every group of a from-step-0 plan over `list`: starts at step 0,
    /// dense local ids, faults preserved under their global ids.
    fn assert_step_zero_groups(list: &FaultList, plan: &WindowPlan) {
        assert!(plan.skipped.is_empty(), "from-step-0 plans skip nothing");
        for group in &plan.shards {
            assert_eq!((group.checkpoint, group.start), (None, 0));
            assert_eq!(group.list.len(), group.len());
            for (li, f) in group.list.iter().enumerate() {
                assert_eq!(f.id.index(), li);
                let orig = list.fault(group.global_id(f.id));
                assert_eq!(
                    (f.signal, f.bit, f.stuck),
                    (orig.signal, orig.bit, orig.stuck)
                );
            }
        }
    }

    #[test]
    fn step_zero_plan_is_lossless_and_cut_in_id_order() {
        let list = universe(40, 5);
        let all: Vec<FaultId> = list.iter().map(|f| f.id).collect();
        for n in [1, 2, 3, 7, 40] {
            let plan = WindowPlan::from_step_zero(&list, n);
            assert_eq!(plan.shards.len(), n);
            assert_step_zero_groups(&list, &plan);
            // Contiguous chunks in id order: concatenated, the groups are
            // the universe; equal cut: sizes differ by at most one.
            let cut: Vec<FaultId> = plan
                .shards
                .iter()
                .flat_map(|g| g.global_ids().iter().copied())
                .collect();
            assert_eq!(cut, all, "n={n}");
            let sizes: Vec<usize> = plan.shards.iter().map(WindowShard::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn step_zero_plan_holds_at_most_one_group_per_fault() {
        // No engine is built for zero faults: asked for more groups than
        // there are faults, the cut makes one group per fault.
        let list = universe(3, 2);
        let plan = WindowPlan::from_step_zero(&list, 8);
        assert_eq!(plan.shards.len(), 3);
        assert!(plan.shards.iter().all(|g| g.len() == 1));
        assert_step_zero_groups(&list, &plan);
    }

    #[test]
    fn zero_groups_clamp_to_one() {
        let list = universe(6, 2);
        let plan = WindowPlan::from_step_zero(&list, 0);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].len(), 6);
    }

    #[test]
    fn step_zero_plan_is_deterministic() {
        let list = universe(64, 7);
        let a = WindowPlan::from_step_zero(&list, 4);
        let b = WindowPlan::from_step_zero(&list, 4);
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.global_ids(), y.global_ids());
        }
    }

    #[test]
    fn single_group_plan_is_the_identity() {
        // What lets a one-thread plain campaign run exactly one engine
        // over exactly the caller's list: same faults, same order, local
        // id = global id — an empty universe included.
        for list in [universe(23, 4), FaultList::default()] {
            let plan = WindowPlan::from_step_zero(&list, 1);
            assert_eq!(plan.shards.len(), 1);
            assert_step_zero_groups(&list, &plan);
            assert_eq!(plan.shards[0].list.faults(), list.faults());
            let ids: Vec<FaultId> = list.iter().map(|f| f.id).collect();
            assert_eq!(plan.shards[0].global_ids(), ids);
        }
    }

    #[test]
    fn merge_coverage_into_remaps_detections() {
        let list = universe(20, 4);
        let plan = WindowPlan::from_step_zero(&list, 4);
        let mut global = CoverageReport::new(list.len());
        for (gi, group) in plan.shards.iter().enumerate() {
            // Detect every even local fault at a group-dependent step.
            let mut local = CoverageReport::new(group.len());
            for li in (0..group.len()).step_by(2) {
                local.record(
                    FaultId(li as u32),
                    Detection {
                        step: gi + 1,
                        output: SignalId(0),
                    },
                );
            }
            group.merge_coverage_into(&local, &mut global);
        }
        for (gi, group) in plan.shards.iter().enumerate() {
            for (li, &gid) in group.global_ids().iter().enumerate() {
                let want = (li % 2 == 0).then_some(Detection {
                    step: gi + 1,
                    output: SignalId(0),
                });
                assert_eq!(global.detection(gid), want, "global {gid:?}");
            }
        }
        assert_eq!(global.detected(), 12);
    }

    #[test]
    #[should_panic(expected = "coverage report covers")]
    fn merge_coverage_into_rejects_foreign_report() {
        let list = universe(10, 3);
        let plan = WindowPlan::from_step_zero(&list, 2);
        let wrong = CoverageReport::new(3);
        plan.shards[0].merge_coverage_into(&wrong, &mut CoverageReport::new(10));
    }
}
