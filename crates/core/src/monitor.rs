//! Algorithm 1: run-time implicit-redundancy detection.

use crate::diff::{DiffList, FaultView};
use eraser_fault::FaultId;
use eraser_ir::{DecisionId, EvalScratch, SegmentId, SignalId, Vdg};
use eraser_logic::LogicVec;
use eraser_sim::{ExecMonitor, OverlayView, ValueStore};

/// The implicit-redundancy detector of the ERASER paper (Algorithm 1),
/// implemented as an execution monitor riding along the *good* execution.
///
/// The monitor starts with the candidate faults (those with a visible
/// difference on some node input — the explicitly non-redundant ones) all
/// presumed redundant, and walks the visibility dependency graph at the
/// good execution's pace:
///
/// * at each **path decision node** (lines 5–11): for every still-presumed
///   candidate whose values could affect the decision (a visible diff on a
///   decision read), the decision's `Evaluate` function is re-run under the
///   fault's values; a differing outcome means the execution paths diverge
///   — not redundant;
/// * at each **path dependency node** (lines 12–18): any candidate with a
///   visible diff on a signal the executed segment reads would compute a
///   different result — not redundant.
///
/// Candidates still presumed redundant when the good execution finishes are
/// exactly the implicitly redundant faults: their execution is skipped and
/// the good results are replayed onto their state.
///
/// Decisions are evaluated with the good execution's blocking-write overlay
/// for locals and the fault's committed view for everything else. This is
/// sound: a fault that is still a redundancy candidate has, by induction,
/// followed the same path with the same data so far, so its locals equal
/// the good execution's locals.
pub struct RedundancyMonitor<'e> {
    diffs: &'e [DiffList],
    good: &'e ValueStore,
    vdg: &'e Vdg,
    /// Candidates still presumed redundant.
    live: Vec<FaultId>,
    /// Candidates proven non-redundant (must execute).
    killed: Vec<FaultId>,
    /// Scratch arena for re-evaluating decisions under fault values.
    scratch: &'e mut EvalScratch,
}

impl<'e> RedundancyMonitor<'e> {
    /// Creates a monitor over `candidates` for one behavioral activation.
    ///
    /// `killed` is an empty (typically pooled) buffer that collects the
    /// proven-non-redundant faults; `scratch` supplies decision
    /// re-evaluation temporaries. Both come from the engine's workspace so
    /// steady-state monitoring never allocates.
    pub fn new(
        diffs: &'e [DiffList],
        good: &'e ValueStore,
        vdg: &'e Vdg,
        candidates: Vec<FaultId>,
        killed: Vec<FaultId>,
        scratch: &'e mut EvalScratch,
    ) -> Self {
        debug_assert!(killed.is_empty());
        RedundancyMonitor {
            diffs,
            good,
            vdg,
            live: candidates,
            killed,
            scratch,
        }
    }

    /// Consumes the monitor: `(implicitly_redundant, must_execute)`.
    pub fn into_verdicts(self) -> (Vec<FaultId>, Vec<FaultId>) {
        (self.live, self.killed)
    }
}

impl ExecMonitor for RedundancyMonitor<'_> {
    fn on_decision(&mut self, id: DecisionId, outcome: u32, overlay: &[(SignalId, LogicVec)]) {
        if self.live.is_empty() {
            return;
        }
        let info = &self.vdg.decisions[id.index()];
        let diffs = self.diffs;
        let good = self.good;
        let scratch = &mut *self.scratch;
        let mut killed = std::mem::take(&mut self.killed);
        self.live.retain(|&f| {
            // Only faults whose values feed the Evaluate function can flip
            // it; everything else provably evaluates identically.
            let touched = info.reads.iter().any(|s| diffs[s.index()].contains(f));
            if !touched {
                return true;
            }
            let fault_committed = FaultView::new(diffs, good, f);
            let view = OverlayView {
                overlay,
                base: &fault_committed,
            };
            if info.eval.evaluate_with(&view, scratch) != outcome {
                killed.push(f);
                false
            } else {
                true
            }
        });
        self.killed = killed;
    }

    fn on_segment(&mut self, id: SegmentId, _overlay: &[(SignalId, LogicVec)]) {
        if self.live.is_empty() {
            return;
        }
        let info = &self.vdg.segments[id.index()];
        let diffs = self.diffs;
        let mut killed = std::mem::take(&mut self.killed);
        self.live.retain(|&f| {
            if info.reads.iter().any(|s| diffs[s.index()].contains(f)) {
                killed.push(f);
                false
            } else {
                true
            }
        });
        self.killed = killed;
    }
}
