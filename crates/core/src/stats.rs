//! Instrumentation counters for the paper's redundancy measurements.

use std::time::Duration;

/// Counters quantifying behavioral-node redundancy elimination — the raw
/// material of the paper's Fig. 1(b), Fig. 7 and Table III.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RedundancyStats {
    /// Good behavioral activations executed.
    pub good_activations: u64,
    /// Faulty behavioral execution *opportunities*: at every good
    /// activation, every live fault would execute absent any redundancy
    /// elimination (Table III "#Total BN Execution").
    pub opportunities: u64,
    /// Opportunities skipped because the fault had no visible difference on
    /// any node input (explicit redundancy).
    pub explicit_skipped: u64,
    /// Candidate executions skipped by the execution-path check
    /// (Algorithm 1; implicit redundancy): no decision flips and no
    /// executed segment reads a visible difference. A read the activation's
    /// own earlier blocking write resolves is not one, nor are bits a read
    /// does not select, so a candidate whose only differences sit on
    /// write-before-read locals or unselected bits is skipped here.
    pub implicit_skipped: u64,
    /// Faulty behavioral executions actually performed.
    pub fault_executions: u64,
    /// Standalone faulty activations (a fault's view produced an edge the
    /// good network did not).
    pub fault_only_activations: u64,
    /// Faulty activations suppressed (the good network fired, the fault's
    /// view did not).
    pub suppressed_activations: u64,
    /// Good RTL node evaluations.
    pub rtl_good_evals: u64,
    /// Per-fault RTL node evaluations.
    pub rtl_fault_evals: u64,
    /// Delta cycles executed.
    pub deltas: u64,
    /// Good-prefix settle steps *not* replayed thanks to checkpointed
    /// fault starts, summed over all faults (checkpointed serial
    /// campaigns; 0 elsewhere). The temporal-redundancy analogue of the
    /// skip counters above.
    pub skipped_prefix_steps: u64,
    /// Faults never simulated because activation-window analysis proved
    /// they cannot diverge within the stimulus (undetected by
    /// construction).
    pub skipped_faults: u64,
    /// Faults removed from the live set at their first detection (fault
    /// dropping).
    pub dropped_faults: u64,
    /// Bit-parallel RTL batch evaluations performed (groups of lanes
    /// evaluated in one word-parallel pass; 0 without `--batch`).
    pub batch_groups: u64,
    /// Fault lanes filled across all batch evaluations. Divided by
    /// `batch_groups * 64` this is the mean lane occupancy.
    pub batch_lanes: u64,
    /// Candidate RTL fault evaluations that fell back to the scalar path
    /// while batching was enabled (unbatchable node, wide signal, or a
    /// group too small to be worth transposing).
    pub batch_scalar_fallbacks: u64,
    /// Faults folded away by static collapsing — class members represented
    /// by another fault's simulation (0 without `--collapse`). Together
    /// with `collapse_classes` and `collapse_dropped` this partitions the
    /// original universe: `classes + collapsed + dropped = total`.
    pub collapsed_faults: u64,
    /// Kept equivalence classes — the faults actually simulated under
    /// static collapsing.
    pub collapse_classes: u64,
    /// Faults statically proven undetectable (no reader of the bit, or no
    /// influence path to any output) and never simulated.
    pub collapse_dropped: u64,
    /// Wall time inside behavioral-node processing (good + fault execution
    /// + redundancy checks + commits).
    pub time_behavioral: Duration,
    /// Total engine wall time (set by the campaign driver).
    pub time_total: Duration,
}

impl RedundancyStats {
    /// Accumulates another run's counters into this one — the reduction
    /// step of the campaign drain, where each fault group produces its own
    /// stats.
    ///
    /// All counters and durations sum. Note that per-group good-network
    /// work (`good_activations`, `rtl_good_evals`, `deltas`) is repeated in
    /// every group, so merged totals count that repetition — they measure
    /// aggregate work performed, not serial-equivalent work. Summed
    /// `time_*` fields are aggregate compute (CPU) time, **not** wall
    /// time: the drain stamps each group's `time_total` with that group's
    /// wall before merging, keeping
    /// [`behavioral_time_percent`](Self::behavioral_time_percent) a valid
    /// compute-share (≤ 100%) at any thread count. Campaign wall time
    /// lives in [`EngineResult::wall`](crate::EngineResult) or the
    /// caller's own timer.
    pub fn merge(&mut self, other: &RedundancyStats) {
        self.good_activations += other.good_activations;
        self.opportunities += other.opportunities;
        self.explicit_skipped += other.explicit_skipped;
        self.implicit_skipped += other.implicit_skipped;
        self.fault_executions += other.fault_executions;
        self.fault_only_activations += other.fault_only_activations;
        self.suppressed_activations += other.suppressed_activations;
        self.rtl_good_evals += other.rtl_good_evals;
        self.rtl_fault_evals += other.rtl_fault_evals;
        self.deltas += other.deltas;
        self.skipped_prefix_steps += other.skipped_prefix_steps;
        self.skipped_faults += other.skipped_faults;
        self.dropped_faults += other.dropped_faults;
        self.batch_groups += other.batch_groups;
        self.batch_lanes += other.batch_lanes;
        self.batch_scalar_fallbacks += other.batch_scalar_fallbacks;
        self.collapsed_faults += other.collapsed_faults;
        self.collapse_classes += other.collapse_classes;
        self.collapse_dropped += other.collapse_dropped;
        self.time_behavioral += other.time_behavioral;
        self.time_total += other.time_total;
    }

    /// Opportunities eliminated by any mechanism (Table III
    /// "#Elimination").
    pub fn eliminated(&self) -> u64 {
        self.explicit_skipped + self.implicit_skipped
    }

    /// Share of eliminations that are explicit, in percent of total
    /// opportunities (Table III "Explicit (%)").
    pub fn explicit_percent(&self) -> f64 {
        percent(self.explicit_skipped, self.opportunities)
    }

    /// Share of eliminations that are implicit, in percent of total
    /// opportunities (Table III "Implicit (%)").
    pub fn implicit_percent(&self) -> f64 {
        percent(self.implicit_skipped, self.opportunities)
    }

    /// Share of total time spent in behavioral-node processing, in percent
    /// (Table III "Time for BN (%)").
    pub fn behavioral_time_percent(&self) -> f64 {
        if self.time_total.is_zero() {
            0.0
        } else {
            100.0 * self.time_behavioral.as_secs_f64() / self.time_total.as_secs_f64()
        }
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let s = RedundancyStats {
            opportunities: 200,
            explicit_skipped: 100,
            implicit_skipped: 60,
            fault_executions: 40,
            ..Default::default()
        };
        assert_eq!(s.eliminated(), 160);
        assert!((s.explicit_percent() - 50.0).abs() < 1e-9);
        assert!((s.implicit_percent() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = RedundancyStats {
            good_activations: 3,
            opportunities: 100,
            explicit_skipped: 40,
            implicit_skipped: 10,
            fault_executions: 50,
            fault_only_activations: 2,
            suppressed_activations: 1,
            rtl_good_evals: 7,
            rtl_fault_evals: 11,
            deltas: 9,
            skipped_prefix_steps: 13,
            skipped_faults: 2,
            dropped_faults: 4,
            batch_groups: 6,
            batch_lanes: 300,
            batch_scalar_fallbacks: 5,
            collapsed_faults: 21,
            collapse_classes: 17,
            collapse_dropped: 3,
            time_behavioral: Duration::from_millis(5),
            time_total: Duration::from_millis(20),
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.opportunities, 200);
        assert_eq!(a.fault_executions, 100);
        assert_eq!(a.eliminated(), 100);
        assert_eq!(a.time_behavioral, Duration::from_millis(10));
        assert_eq!(a.deltas, 18);
        assert_eq!(a.skipped_prefix_steps, 26);
        assert_eq!(a.skipped_faults, 4);
        assert_eq!(a.dropped_faults, 8);
        assert_eq!(a.batch_groups, 12);
        assert_eq!(a.batch_lanes, 600);
        assert_eq!(a.batch_scalar_fallbacks, 10);
        assert_eq!(a.collapsed_faults, 42);
        assert_eq!(a.collapse_classes, 34);
        assert_eq!(a.collapse_dropped, 6);
        // Merging an empty (all-dropped or empty-shard) stats block is the
        // identity.
        let before = a.clone();
        a.merge(&RedundancyStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn empty_is_zero() {
        let s = RedundancyStats::default();
        assert_eq!(s.explicit_percent(), 0.0);
        assert_eq!(s.behavioral_time_percent(), 0.0);
    }
}
