//! The campaign plan: which faults share an engine.
//!
//! A fault's simulation never depends on which other faults share its
//! engine — one good network, many difference lists — so how a universe is
//! cut into groups is pure scheduling policy, and a [`FaultPlan`] is the
//! whole of it: a list of [`FaultGroup`] groups in queue order. Every
//! campaign driver — the concurrent engine and the serial baselines, at
//! any thread count — builds one plan and hands it to the one drain in
//! `eraser-core`.
//!
//! **A group costs one good-network pass**, so there is one sizing rule:
//! the caller asks for as many groups as it has workers (never more than
//! there are faults). There is also **one cut rule**: the faults, in id
//! order, are cut into `n` contiguous chunks of equal size (±1). Ids are
//! site-major ([`generate_faults`](crate::generate_faults)), so faults
//! sharing a site share a group — and with it their per-signal diff lists
//! — except where a cut falls inside a site's run. With `n == 1` the
//! single group is the universe itself, so a one-thread campaign is one
//! engine over the caller's list. Every group starts at step 0.
//!
//! A group holds its members in ascending global-id order with dense local
//! ids, so any engine runs it as it would a whole universe, and its
//! coverage folds back through the one reduction rule,
//! [`FaultGroup::merge_coverage_into`].
//!
//! The plan is a pure function of `(faults, n)`, with no timing input, so
//! a campaign's coverage **and** redundancy counters repeat exactly from
//! run to run. Coverage is the same for every `n`; the counters are a
//! function of the plan (each group pays its own good-network pass), and
//! draining one plan on one worker or many gives bit-identical counters.

use crate::{CoverageReport, Fault, FaultId, FaultList};

/// One schedulable unit of a [`FaultPlan`]: a group of faults that share
/// an engine.
#[derive(Debug, Clone)]
pub struct FaultGroup {
    /// The group's faults with dense local ids (`0..len`), in ascending
    /// global-id order. Engines run this list exactly as they would a
    /// whole universe.
    pub list: FaultList,
    /// Local id index -> global [`FaultId`], ascending.
    global: Vec<FaultId>,
}

impl FaultGroup {
    /// A group of universe faults, given in ascending global-id order.
    fn new(members: &[&Fault]) -> FaultGroup {
        debug_assert!(members.windows(2).all(|p| p[0].id < p[1].id));
        FaultGroup {
            global: members.iter().map(|f| f.id).collect(),
            list: members.iter().map(|&&f| f).collect(),
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
/// docs of `plan.rs` for the cut rule and the determinism argument.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Groups in queue order (id order). Disjoint; their union is the
    /// whole universe.
    pub groups: Vec<FaultGroup>,
}

impl FaultPlan {
    /// The one cut rule: the list in id order, in `n` contiguous chunks
    /// of equal size (±1), each chunk one group — at least one, at most
    /// one per fault. A single group is the caller's list itself — local
    /// id = global id — so an empty universe still runs its one
    /// (fault-free) engine.
    pub fn equal_cut(faults: &FaultList, n: usize) -> FaultPlan {
        let all: Vec<&Fault> = faults.iter().collect();
        let n = n.clamp(1, all.len().max(1));
        let cut = |i: usize| i * all.len() / n;
        FaultPlan {
            groups: (0..n)
                .map(|i| FaultGroup::new(&all[cut(i)..cut(i + 1)]))
                .collect(),
        }
    }

    /// Total faults scheduled for simulation: the whole universe.
    pub fn scheduled_faults(&self) -> usize {
        self.groups.iter().map(FaultGroup::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_faults, Detection, FaultListConfig, StuckAt};
    use eraser_frontend::compile;
    use eraser_ir::SignalId;

    /// The generated universe of a real design: an 8-bit counter.
    fn counter_universe() -> FaultList {
        let design = compile(
            "module m(input wire clk, input wire rst, output reg [7:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 8'h00; else q <= q + 8'h01;
               end
             endmodule",
            None,
        )
        .unwrap();
        generate_faults(&design, &FaultListConfig::default())
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

    /// Every group of a plan over `list`: dense local ids, faults
    /// preserved under their global ids.
    fn assert_dense_groups(list: &FaultList, plan: &FaultPlan) {
        for group in &plan.groups {
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
    fn plan_is_lossless_and_cut_into_at_most_n_groups() {
        let counter = counter_universe();
        let counter_ns = vec![1, 2, 3, 5, counter.len(), counter.len() + 7];
        for (list, ns) in [
            (counter, counter_ns),
            (universe(40, 5), vec![1, 2, 3, 7, 40]),
        ] {
            let all: Vec<FaultId> = list.iter().map(|f| f.id).collect();
            for n in ns {
                let plan = FaultPlan::equal_cut(&list, n);
                assert_eq!(plan.groups.len(), n.min(list.len()), "n={n}");
                assert_eq!(plan.scheduled_faults(), list.len(), "n={n}");
                assert_dense_groups(&list, &plan);
                // Equal cut: group sizes differ by at most one.
                let sizes: Vec<usize> = plan.groups.iter().map(FaultGroup::len).collect();
                assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
                // Lossless, contiguous chunks in id order: concatenated,
                // the groups are the universe.
                let cut: Vec<FaultId> = plan
                    .groups
                    .iter()
                    .flat_map(|g| g.global_ids().iter().copied())
                    .collect();
                assert_eq!(cut, all, "n={n}");
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        // A pure function of (faults, n): building it twice yields the
        // identical group sequence.
        let counter = counter_universe();
        let counter_ns = vec![1, 3, counter.len() + 7];
        for (list, ns) in [(counter, counter_ns), (universe(64, 7), vec![4])] {
            for n in ns {
                let a = FaultPlan::equal_cut(&list, n);
                let b = FaultPlan::equal_cut(&list, n);
                assert_eq!(a.groups.len(), b.groups.len());
                for (x, y) in a.groups.iter().zip(&b.groups) {
                    assert_eq!(x.global_ids(), y.global_ids());
                }
            }
        }
    }

    #[test]
    fn plan_holds_at_most_one_group_per_fault() {
        // No engine is built for zero faults: asked for more groups than
        // there are faults, the cut makes one group per fault.
        let list = universe(3, 2);
        let plan = FaultPlan::equal_cut(&list, 8);
        assert_eq!(plan.groups.len(), 3);
        assert!(plan.groups.iter().all(|g| g.len() == 1));
        assert_dense_groups(&list, &plan);
    }

    #[test]
    fn zero_groups_clamp_to_one() {
        let list = universe(6, 2);
        let plan = FaultPlan::equal_cut(&list, 0);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].len(), 6);
    }

    #[test]
    fn single_group_plan_is_the_identity() {
        // What lets a one-thread plain campaign run exactly one engine
        // over exactly the caller's list: same faults, same order, local
        // id = global id — an empty universe included.
        for list in [universe(23, 4), FaultList::default()] {
            let plan = FaultPlan::equal_cut(&list, 1);
            assert_eq!(plan.groups.len(), 1);
            assert_dense_groups(&list, &plan);
            assert_eq!(plan.groups[0].list.faults(), list.faults());
            let ids: Vec<FaultId> = list.iter().map(|f| f.id).collect();
            assert_eq!(plan.groups[0].global_ids(), ids);
        }
    }

    #[test]
    fn merge_coverage_into_remaps_detections() {
        let list = universe(20, 4);
        let plan = FaultPlan::equal_cut(&list, 4);
        let mut global = CoverageReport::new(list.len());
        for (gi, group) in plan.groups.iter().enumerate() {
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
        for (gi, group) in plan.groups.iter().enumerate() {
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
        let plan = FaultPlan::equal_cut(&list, 2);
        let wrong = CoverageReport::new(3);
        plan.groups[0].merge_coverage_into(&wrong, &mut CoverageReport::new(10));
    }
}
