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
///   committed decision read), the decision's `Evaluate` function is re-run
///   under the fault's values; a differing outcome means the execution
///   paths diverge — not redundant;
/// * at each **path dependency node** (lines 12–18): any candidate with a
///   visible diff on a committed signal the executed segment reads would
///   compute a different result — not redundant.
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
///
/// The same induction makes a read resolved from the overlay no visible
/// difference, whatever diff its signal carries in committed state: a
/// signal is in the overlay iff an earlier statement of this activation
/// wrote it on the good path, which every live candidate shares, from
/// values every live candidate shares. So only a diff on a *committed*
/// read — one not in the overlay — kills a candidate at a segment or sends
/// it to re-evaluate a decision. A stuck-at on a write-before-read
/// temporary stays a candidate; its forced diff is re-applied when the
/// replayed write commits. A partial first write still reads its target
/// from committed state (the target enters the overlay only after that
/// segment), so a diff there still kills.
///
/// A committed read is a visible difference only where the fault's value
/// differs from the good one within the bits the node reads of it (the
/// VDG's `spans`: the hull of its constant part selects, the whole signal
/// otherwise). Outside them the decision or assignment computes exactly
/// what the good execution computes, so a stuck-at on an instruction bit
/// no field select takes stays a candidate.
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

/// The reads of one decision or segment that can carry a visible
/// difference: those resolved from committed state (not from the
/// activation's blocking-write overlay) whose diff list is non-empty, as a
/// stack mask over the first 64 reads. Reads past the mask's width count as
/// committed and are always checked.
struct CommittedReads<'a> {
    reads: &'a [SignalId],
    spans: &'a [(u32, u32)],
    mask: u64,
}

impl<'a> CommittedReads<'a> {
    fn new(
        reads: &'a [SignalId],
        spans: &'a [(u32, u32)],
        overlay: &[(SignalId, LogicVec)],
        diffs: &[DiffList],
    ) -> Self {
        let mut mask = 0u64;
        for (i, s) in reads.iter().take(64).enumerate() {
            if !diffs[s.index()].is_empty() && !overlay.iter().any(|(o, _)| o == s) {
                mask |= 1 << i;
            }
        }
        CommittedReads { reads, spans, mask }
    }

    /// True when no live candidate can differ on any read.
    fn none(&self) -> bool {
        self.mask == 0 && self.reads.len() <= 64
    }

    /// True when `f`'s committed value of a committed read differs from the
    /// good one within the bits read.
    fn differ(&self, diffs: &[DiffList], good: &ValueStore, f: FaultId) -> bool {
        let visible = |i: usize| {
            let s = self.reads[i];
            diffs[s.index()]
                .get(f)
                .is_some_and(|v| differs_within(v, good.get(s), self.spans[i]))
        };
        let mut m = self.mask;
        while m != 0 {
            if visible(m.trailing_zeros() as usize) {
                return true;
            }
            m &= m - 1;
        }
        (64..self.reads.len()).any(visible)
    }
}

/// True when `a` and `b` differ, in either plane, in a bit of `lo..=hi`.
/// Bits past the width are zero in both planes, so they never differ.
fn differs_within(a: &LogicVec, b: &LogicVec, (lo, hi): (u32, u32)) -> bool {
    let (first, last) = ((lo / 64) as usize, (hi / 64) as usize);
    let words = a.avals().len().min(b.avals().len());
    (first..words.min(last + 1)).any(|w| {
        let mut m = u64::MAX;
        if w == first {
            m &= u64::MAX << (lo % 64);
        }
        if w == last {
            m &= u64::MAX >> (63 - hi % 64);
        }
        ((a.avals()[w] ^ b.avals()[w]) | (a.bvals()[w] ^ b.bvals()[w])) & m != 0
    })
}

impl ExecMonitor for RedundancyMonitor<'_> {
    fn on_decision(&mut self, id: DecisionId, outcome: u32, overlay: &[(SignalId, LogicVec)]) {
        if self.live.is_empty() {
            return;
        }
        let info = &self.vdg.decisions[id.index()];
        let diffs = self.diffs;
        // Only faults whose committed values feed the Evaluate function can
        // flip it; everything else provably evaluates identically.
        let committed = CommittedReads::new(&info.reads, &info.spans, overlay, diffs);
        if committed.none() {
            return;
        }
        let good = self.good;
        let scratch = &mut *self.scratch;
        let mut killed = std::mem::take(&mut self.killed);
        self.live.retain(|&f| {
            if !committed.differ(diffs, good, f) {
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

    fn on_segment(&mut self, id: SegmentId, overlay: &[(SignalId, LogicVec)]) {
        if self.live.is_empty() {
            return;
        }
        let (diffs, good) = (self.diffs, self.good);
        let info = &self.vdg.segments[id.index()];
        let committed = CommittedReads::new(&info.reads, &info.spans, overlay, diffs);
        if committed.none() {
            return;
        }
        let mut killed = std::mem::take(&mut self.killed);
        self.live.retain(|&f| {
            if committed.differ(diffs, good, f) {
                killed.push(f);
                false
            } else {
                true
            }
        });
        self.killed = killed;
    }
}
