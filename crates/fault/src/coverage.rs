//! Detection bookkeeping and the fault-coverage metric.

use crate::FaultId;
use eraser_ir::SignalId;
use std::fmt;

/// One fault detection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// The stimulus step (settle point) at which the difference was
    /// observed.
    pub step: usize,
    /// The output (observation point) where the difference appeared.
    pub output: SignalId,
}

/// Per-fault detection records and the coverage metric of the paper's
/// Table II.
///
/// Engines record the *first* detection of each fault; subsequent reports
/// for an already-detected fault are ignored, so coverage comparisons
/// between engines are insensitive to fault-dropping policies.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    detections: Vec<Option<Detection>>,
}

impl CoverageReport {
    /// Creates a report for a universe of `num_faults` faults, all
    /// undetected.
    pub fn new(num_faults: usize) -> Self {
        CoverageReport {
            detections: vec![None; num_faults],
        }
    }

    /// Records the first detection of `fault`. Returns `true` if this was
    /// the first report for it.
    pub fn record(&mut self, fault: FaultId, detection: Detection) -> bool {
        let slot = &mut self.detections[fault.index()];
        if slot.is_none() {
            *slot = Some(detection);
            true
        } else {
            false
        }
    }

    /// Whether `fault` has been detected.
    pub fn is_detected(&self, fault: FaultId) -> bool {
        self.detections[fault.index()].is_some()
    }

    /// The detection record of `fault`, if any.
    pub fn detection(&self, fault: FaultId) -> Option<Detection> {
        self.detections[fault.index()]
    }

    /// Total faults in the universe.
    pub fn total(&self) -> usize {
        self.detections.len()
    }

    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.detections.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage in percent (`100 * detected / total`), the Table II
    /// metric. Returns 100 for an empty universe.
    pub fn coverage_percent(&self) -> f64 {
        if self.detections.is_empty() {
            100.0
        } else {
            100.0 * self.detected() as f64 / self.total() as f64
        }
    }

    /// Ids of undetected faults.
    pub fn undetected(&self) -> Vec<FaultId> {
        self.detections
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| FaultId(i as u32))
            .collect()
    }

    /// Expands a report over a *collapsed* universe (one slot per
    /// equivalence class, see
    /// [`CollapsedFaultList`](crate::CollapsedFaultList)) into the full
    /// universe of `total` faults: every member of `classes[i]` inherits
    /// slot `i`'s detection record verbatim; faults appearing in no class
    /// (the dropped set) stay undetected.
    ///
    /// Because class members are *equivalent* — identical faulty values at
    /// every observation point at every step — the uncollapsed run would
    /// have produced exactly the representative's `(step, output)` record
    /// for each of them, so the lifted report is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not have exactly one slot per class.
    pub fn lift_classes(&self, total: usize, classes: &[Vec<FaultId>]) -> CoverageReport {
        assert_eq!(
            self.detections.len(),
            classes.len(),
            "class-lift needs one detection slot per class ({} vs {} classes)",
            self.detections.len(),
            classes.len()
        );
        let mut lifted = CoverageReport::new(total);
        for (slot, members) in self.detections.iter().zip(classes) {
            if let Some(d) = slot {
                for &m in members {
                    lifted.detections[m.index()] = Some(*d);
                }
            }
        }
        lifted
    }

    /// True if two reports detect exactly the same fault set (the parity
    /// criterion used to validate engines against each other; detection
    /// steps may differ between engines with different scheduling).
    pub fn same_detected_set(&self, other: &CoverageReport) -> bool {
        self.detections.len() == other.detections.len()
            && self
                .detections
                .iter()
                .zip(&other.detections)
                .all(|(a, b)| a.is_some() == b.is_some())
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} detected ({:.2}%)",
            self.detected(),
            self.total(),
            self.coverage_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_first_detection_only() {
        let mut r = CoverageReport::new(3);
        let d0 = Detection {
            step: 4,
            output: SignalId(1),
        };
        assert!(r.record(FaultId(1), d0));
        assert!(!r.record(
            FaultId(1),
            Detection {
                step: 9,
                output: SignalId(2)
            }
        ));
        assert_eq!(r.detection(FaultId(1)), Some(d0));
        assert_eq!(r.detected(), 1);
        assert_eq!(r.total(), 3);
        assert!((r.coverage_percent() - 33.333).abs() < 0.01);
        assert_eq!(r.undetected(), vec![FaultId(0), FaultId(2)]);
    }

    #[test]
    fn parity_ignores_steps() {
        let mut a = CoverageReport::new(2);
        let mut b = CoverageReport::new(2);
        a.record(
            FaultId(0),
            Detection {
                step: 1,
                output: SignalId(0),
            },
        );
        b.record(
            FaultId(0),
            Detection {
                step: 7,
                output: SignalId(1),
            },
        );
        assert!(a.same_detected_set(&b));
        b.record(
            FaultId(1),
            Detection {
                step: 8,
                output: SignalId(1),
            },
        );
        assert!(!a.same_detected_set(&b));
    }

    #[test]
    fn lift_classes_copies_records_and_leaves_dropped_undetected() {
        // Collapsed universe: class 0 = {0, 2, 5}, class 1 = {1, 4};
        // fault 3 was dropped (member of no class).
        let classes = vec![
            vec![FaultId(0), FaultId(2), FaultId(5)],
            vec![FaultId(1), FaultId(4)],
        ];
        let mut local = CoverageReport::new(2);
        let d = Detection {
            step: 6,
            output: SignalId(3),
        };
        local.record(FaultId(0), d);
        let lifted = local.lift_classes(6, &classes);
        assert_eq!(lifted.total(), 6);
        for m in [0u32, 2, 5] {
            assert_eq!(lifted.detection(FaultId(m)), Some(d));
        }
        for m in [1u32, 3, 4] {
            assert!(!lifted.is_detected(FaultId(m)));
        }
    }

    #[test]
    #[should_panic(expected = "one detection slot per class")]
    fn lift_classes_rejects_slot_mismatch() {
        CoverageReport::new(3).lift_classes(5, &[vec![FaultId(0)]]);
    }

    #[test]
    fn empty_universe_is_full_coverage() {
        let r = CoverageReport::new(0);
        assert_eq!(r.coverage_percent(), 100.0);
        assert_eq!(r.to_string(), "0/0 detected (100.00%)");
    }
}
