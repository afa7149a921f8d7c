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
    /// write-before-read locals or unselected bits is skipped here. In
    /// `Full` mode this includes, at every good activation, the faults
    /// sited on the activation-local signals the node reads whose force
    /// would change the committed value — booked from the static analysis
    /// (`eraser_ir::analysis::activation_local_signals`) without a
    /// materialized diff, in exactly the count Algorithm 1 finds for them.
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
    /// Always 0: every engine replays every fault from step 0, so no
    /// good-prefix step is skipped. Kept so that stored records keep their
    /// format and older ones (which may hold a nonzero count from
    /// checkpointed serial restarts) still read.
    pub skipped_prefix_steps: u64,
    /// Always 0: every engine simulates every fault it is given. Kept so
    /// that stored records keep their format and older ones (which may
    /// count never-active faults a checkpointed serial run skipped) still
    /// read.
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
    /// Always 0: no campaign records a separate good run. Kept so that
    /// stored records keep their format and older ones (which may count a
    /// checkpointed serial run's good replay) still read.
    pub good_run_steps: u64,
    /// Wall time inside behavioral-node processing (good + fault execution
    /// + redundancy checks + commits).
    pub time_behavioral: Duration,
    /// Total engine wall time (set by the campaign driver).
    pub time_total: Duration,
}

impl RedundancyStats {
    /// Every `u64` counter, by the key a stored campaign record names it
    /// with, in record order — the one list [`merge`](Self::merge) and the
    /// record's encoder and parser are built on. The destructure names
    /// every field, so a field added later does not compile until it is
    /// listed here (or, like the two durations, set aside).
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 20] {
        let RedundancyStats {
            good_activations,
            opportunities,
            explicit_skipped,
            implicit_skipped,
            fault_executions,
            fault_only_activations,
            suppressed_activations,
            rtl_good_evals,
            rtl_fault_evals,
            deltas,
            skipped_prefix_steps,
            skipped_faults,
            dropped_faults,
            batch_groups,
            batch_lanes,
            batch_scalar_fallbacks,
            collapsed_faults,
            collapse_classes,
            collapse_dropped,
            good_run_steps,
            time_behavioral: _,
            time_total: _,
        } = self;
        [
            ("good_activations", good_activations),
            ("opportunities", opportunities),
            ("explicit_skipped", explicit_skipped),
            ("implicit_skipped", implicit_skipped),
            ("fault_executions", fault_executions),
            ("fault_only_activations", fault_only_activations),
            ("suppressed_activations", suppressed_activations),
            ("rtl_good_evals", rtl_good_evals),
            ("rtl_fault_evals", rtl_fault_evals),
            ("deltas", deltas),
            ("skipped_prefix_steps", skipped_prefix_steps),
            ("skipped_faults", skipped_faults),
            ("dropped_faults", dropped_faults),
            ("batch_groups", batch_groups),
            ("batch_lanes", batch_lanes),
            ("batch_scalar_fallbacks", batch_scalar_fallbacks),
            ("collapsed_faults", collapsed_faults),
            ("collapse_classes", collapse_classes),
            ("collapse_dropped", collapse_dropped),
            ("good_run_steps", good_run_steps),
        ]
    }

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
    /// compute-share (≤ 100%) at any thread count. Campaign wall time is
    /// what the caller measures around the campaign.
    pub fn merge(&mut self, other: &RedundancyStats) {
        let mut other = other.clone();
        for ((_, sum), (_, add)) in self.counters_mut().into_iter().zip(other.counters_mut()) {
            *sum += *add;
        }
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
            good_run_steps: 64,
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
        assert_eq!(a.good_run_steps, 128);
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
