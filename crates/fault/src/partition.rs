//! Fault shards: disjoint, self-contained slices of a fault universe.
//!
//! A [`FaultShard`] is an ordinary [`FaultList`] with dense local ids plus
//! the mapping back to the global universe, so any engine runs it
//! unchanged and its coverage folds back through the one reduction rule,
//! [`FaultShard::merge_coverage_into`]. Because a fault's simulation never
//! depends on which other faults share its engine, the folded result is
//! bit-identical to a single run over the whole universe — how a universe
//! is cut is scheduling policy, never semantics. The policy lives in
//! [`WindowPlan`](crate::WindowPlan); this module only supplies the shard
//! type and the site-affinity cut the from-step-0 plan is made of.

use crate::{CoverageReport, Fault, FaultId, FaultList};
use std::collections::HashMap;

/// One shard of a partitioned fault universe: a dense local [`FaultList`]
/// plus the mapping of local ids back to the global universe.
#[derive(Debug, Clone)]
pub struct FaultShard {
    /// Shard number within its partition.
    pub index: usize,
    /// The shard's faults with dense local ids (`0..len`). Engines run this
    /// list exactly as they would a whole universe.
    pub list: FaultList,
    /// Local id index -> global [`FaultId`], ascending.
    global: Vec<FaultId>,
}

impl FaultShard {
    /// Builds a shard from a selection of universe faults. `faults` must
    /// be in ascending global-id order (the shard invariant every merge
    /// path relies on); callers outside [`FaultList::partition`] — the
    /// window planner — sort before constructing.
    pub(crate) fn from_faults(index: usize, faults: Vec<&Fault>) -> FaultShard {
        debug_assert!(faults.windows(2).all(|p| p[0].id < p[1].id));
        let global: Vec<FaultId> = faults.iter().map(|f| f.id).collect();
        FaultShard {
            index,
            list: faults.into_iter().copied().collect(),
            global,
        }
    }

    /// Number of faults in the shard.
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True if the shard holds no faults (possible when a universe is split
    /// into more shards than it has faults).
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// The global id of a shard-local fault.
    pub fn global_id(&self, local: FaultId) -> FaultId {
        self.global[local.index()]
    }

    /// All global ids covered by this shard, in local-id order.
    pub fn global_ids(&self) -> &[FaultId] {
        &self.global
    }

    /// Records every detection of a shard-local report directly into a
    /// global-universe accumulator under its global id — the single
    /// reduction rule of every campaign driver: O(shard size) per shard,
    /// no intermediate full-universe report. Shards of one plan are
    /// disjoint, so the accumulated result is independent of merge order.
    ///
    /// # Panics
    ///
    /// Panics if `local` was not produced over this shard's fault list.
    pub fn merge_coverage_into(&self, local: &CoverageReport, global: &mut CoverageReport) {
        assert_eq!(
            local.total(),
            self.len(),
            "shard {}: coverage report covers {} faults, shard holds {}",
            self.index,
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

impl FaultList {
    /// Splits the universe into `n` disjoint site-affinity shards: faults
    /// sited on the same signal stay in one shard (keeping ERASER's
    /// per-signal diff lists dense inside each engine), and the per-signal
    /// groups spread greedily by size, longest-processing-time first.
    ///
    /// Always returns exactly `max(n, 1)` shards; shards may be empty when
    /// the faults cluster on fewer signals than `n`. Every fault appears
    /// in exactly one shard, and within each shard faults keep their
    /// global relative order (local ids ascend with global ids), so a
    /// single shard is the universe itself: same faults, same order,
    /// local id = global id.
    pub fn partition(&self, n: usize) -> Vec<FaultShard> {
        let n = n.max(1);
        // Group faults by injection site, first appearance order.
        let mut site_of: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<&Fault>> = Vec::new();
        for f in self.iter() {
            let gi = *site_of.entry(f.signal.index()).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(f);
        }
        // Longest-processing-time-first onto the least-loaded shard; ties
        // broken by first global id, then shard index — fully
        // deterministic.
        groups.sort_by_key(|g| (usize::MAX - g.len(), g[0].id));
        let mut buckets: Vec<Vec<&Fault>> = vec![Vec::new(); n];
        let mut load = vec![0usize; n];
        for group in groups {
            let target = (0..n).min_by_key(|&i| (load[i], i)).unwrap();
            load[target] += group.len();
            buckets[target].extend(group);
        }
        for bucket in &mut buckets {
            bucket.sort_by_key(|f| f.id);
        }
        buckets
            .into_iter()
            .enumerate()
            .map(|(index, faults)| FaultShard::from_faults(index, faults))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detection, StuckAt, WindowPlan};
    use eraser_ir::SignalId;

    /// A universe of `n` faults over `sites` signals (round-robin siting),
    /// mimicking generate_faults' dense ids.
    fn universe(n: usize, sites: usize) -> FaultList {
        (0..n)
            .map(|i| Fault {
                id: FaultId(0), // reassigned by FromIterator
                signal: SignalId(((i / 2) % sites) as u32),
                bit: (i / 2 / sites) as u32,
                stuck: if i % 2 == 0 {
                    StuckAt::Zero
                } else {
                    StuckAt::One
                },
            })
            .collect()
    }

    fn assert_lossless(list: &FaultList, shards: &[FaultShard]) {
        let mut seen: Vec<FaultId> = shards
            .iter()
            .flat_map(|s| s.global.iter().copied())
            .collect();
        seen.sort_unstable();
        let all: Vec<FaultId> = list.iter().map(|f| f.id).collect();
        assert_eq!(seen, all, "faults lost or duplicated");
        for shard in shards {
            assert_eq!(shard.list.len(), shard.len());
            // Local ids dense, global mapping ascending, faults preserved.
            let mut prev = None;
            for (li, f) in shard.list.iter().enumerate() {
                assert_eq!(f.id.index(), li);
                let gid = shard.global_id(f.id);
                assert!(
                    prev.map(|p| p < gid).unwrap_or(true),
                    "global ids not ascending"
                );
                prev = Some(gid);
                let orig = list.fault(gid);
                assert_eq!(
                    (f.signal, f.bit, f.stuck),
                    (orig.signal, orig.bit, orig.stuck)
                );
            }
        }
    }

    /// The shards of a plan's groups, for the shard-level checks.
    fn shards_of(plan: &WindowPlan) -> Vec<FaultShard> {
        assert!(plan.skipped.is_empty(), "from-step-0 plans skip nothing");
        assert!(plan
            .shards
            .iter()
            .all(|g| g.start == 0 && g.checkpoint.is_none()));
        plan.shards.iter().map(|g| g.shard.clone()).collect()
    }

    #[test]
    fn site_affinity_keeps_groups_whole() {
        let list = universe(40, 5);
        let shards = shards_of(&WindowPlan::from_step_zero(&list, 3));
        assert_eq!(shards.len(), 3);
        assert_lossless(&list, &shards);
        // Every signal's faults live in exactly one shard.
        for sig in 0..5u32 {
            let holders: Vec<usize> = shards
                .iter()
                .filter(|s| s.list.iter().any(|f| f.signal == SignalId(sig)))
                .map(|s| s.index)
                .collect();
            assert_eq!(
                holders.len(),
                1,
                "signal {sig} split across shards {holders:?}"
            );
        }
        // Load is balanced within the largest group size.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let max_group = 8; // 40 faults over 5 sites
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= max_group);
    }

    #[test]
    fn more_shards_than_faults_yields_empty_shards() {
        // The cut itself always returns n shards; the plan drops the
        // empty ones, so no engine is built for zero faults.
        let list = universe(3, 2);
        let cut = list.partition(8);
        assert_eq!(cut.len(), 8);
        assert_lossless(&list, &cut);
        assert!(cut.iter().any(|s| s.is_empty()));
        let shards = shards_of(&WindowPlan::from_step_zero(&list, 8));
        assert_eq!(shards.len(), 2, "one group per populated site");
        assert!(shards.iter().all(|s| !s.is_empty()));
        assert_lossless(&list, &shards);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let list = universe(6, 2);
        let shards = shards_of(&WindowPlan::from_step_zero(&list, 0));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 6);
    }

    #[test]
    fn partition_is_deterministic() {
        let list = universe(64, 7);
        let a = shards_of(&WindowPlan::from_step_zero(&list, 4));
        let b = shards_of(&WindowPlan::from_step_zero(&list, 4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.global_ids(), y.global_ids());
        }
    }

    #[test]
    fn single_group_plan_is_the_identity() {
        // What lets a one-thread plain campaign run exactly one engine
        // over exactly the caller's list: same faults, same order, local
        // id = global id — an empty universe included.
        for list in [universe(23, 4), FaultList::default()] {
            let shards = shards_of(&WindowPlan::from_step_zero(&list, 1));
            assert_eq!(shards.len(), 1);
            assert_eq!(shards[0].list.faults(), list.faults());
            let ids: Vec<FaultId> = list.iter().map(|f| f.id).collect();
            assert_eq!(shards[0].global_ids(), ids);
        }
    }

    #[test]
    fn merge_coverage_into_remaps_detections() {
        let list = universe(20, 4);
        let shards = list.partition(4);
        let mut global = CoverageReport::new(list.len());
        for shard in &shards {
            // Detect every even local fault at a shard-dependent step.
            let mut local = CoverageReport::new(shard.len());
            for li in (0..shard.len()).step_by(2) {
                local.record(
                    FaultId(li as u32),
                    Detection {
                        step: shard.index + 1,
                        output: SignalId(0),
                    },
                );
            }
            shard.merge_coverage_into(&local, &mut global);
        }
        for shard in &shards {
            for (li, &gid) in shard.global_ids().iter().enumerate() {
                let want = (li % 2 == 0).then_some(Detection {
                    step: shard.index + 1,
                    output: SignalId(0),
                });
                assert_eq!(global.detection(gid), want, "global {gid:?}");
            }
        }
        assert_eq!(global.detected(), 10);
    }

    #[test]
    #[should_panic(expected = "coverage report covers")]
    fn merge_coverage_into_rejects_foreign_report() {
        let list = universe(10, 3);
        let shards = list.partition(2);
        let wrong = CoverageReport::new(3);
        shards[0].merge_coverage_into(&wrong, &mut CoverageReport::new(10));
    }
}
