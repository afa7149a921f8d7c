//! The engine's reusable buffers: the [`Workspace`], its [`Pool`]s, and
//! the per-activation records that cycle through them.

use eraser_fault::FaultId;
use eraser_ir::{BehavioralId, EdgeKind, EvalScratch, SignalId};
use eraser_logic::{LanePlanes, LogicVec};
use eraser_sim::{ExecCtx, ExecOutcome, SlotWrite};

/// One behavioral activation's classification of faults.
#[derive(Debug, Clone, Default)]
pub(super) struct Activation {
    /// The good network fired.
    pub good: bool,
    /// Faults whose view fired although the good network did not.
    pub fault_only: Vec<FaultId>,
    /// Faults whose view did not fire although the good network did.
    pub suppressed: Vec<FaultId>,
}

/// Queued non-blocking effects of one behavioral activation.
///
/// Fault writes are stored flat (grouped per fault via `executed` ranges)
/// so the whole block is three reusable vectors instead of a vector of
/// vectors.
#[derive(Debug, Default)]
pub(super) struct PendingNba {
    pub good_writes: Vec<SlotWrite>,
    /// Non-blocking writes of individually executed faults, flat, grouped
    /// consecutively per fault.
    pub fault_writes: Vec<SlotWrite>,
    /// `(fault, start, end)` ranges into `fault_writes`; every individually
    /// executed fault appears here, possibly with an empty range.
    pub executed: Vec<(FaultId, u32, u32)>,
    /// Faults whose activation was suppressed: their targets are pinned to
    /// the pre-commit values.
    pub suppressed: Vec<FaultId>,
}

/// A buffer a [`Pool`] can hold: emptied when it is returned, capacity
/// kept.
pub(super) trait Reuse: Default {
    fn reset(&mut self);
}

impl<T> Reuse for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

impl Reuse for ExecOutcome {
    fn reset(&mut self) {
        self.clear();
    }
}

impl Reuse for Activation {
    fn reset(&mut self) {
        self.good = false;
        self.fault_only.clear();
        self.suppressed.clear();
    }
}

impl Reuse for PendingNba {
    fn reset(&mut self) {
        self.good_writes.clear();
        self.fault_writes.clear();
        self.executed.clear();
        self.suppressed.clear();
    }
}

/// A free list of reusable buffers: `take` one (a fresh default while the
/// list is empty), use it, `put` it back.
#[derive(Default)]
pub(super) struct Pool<T>(Vec<T>);

impl<T: Reuse> Pool<T> {
    #[inline]
    pub fn take(&mut self) -> T {
        self.0.pop().unwrap_or_default()
    }

    #[inline]
    pub fn put(&mut self, mut buf: T) {
        buf.reset();
        self.0.push(buf);
    }
}

/// Reusable buffers for the engine's hot path. Every vector and `LogicVec`
/// here is taken, used, cleared and returned — capacities persist across
/// steps, so the steady state never touches the allocator.
#[derive(Default)]
pub(super) struct Workspace {
    /// `LogicVec` temporaries.
    pub bufs: EvalScratch,
    /// Evaluator scratch of RTL nodes: expression temporaries and the tape
    /// slot arena.
    pub rtl_ctx: ExecCtx,
    /// Evaluator scratch of behavioral bodies, kept apart so each pool of
    /// wide buffers holds the few widths its own evaluations use.
    pub exec_ctx: ExecCtx,
    /// Redundancy-monitor decision re-evaluation scratch.
    pub mon_scratch: EvalScratch,
    pub ids: Pool<Vec<FaultId>>,
    /// Fault-update batches; returned through [`Workspace::put_news`].
    pub news: Pool<Vec<(FaultId, LogicVec)>>,
    pub sigs: Pool<Vec<SignalId>>,
    pub outs: Pool<ExecOutcome>,
    pub acts: Pool<Activation>,
    /// Activations of the current delta.
    pub act_list: Vec<(BehavioralId, Activation)>,
    /// Per-fault outcomes of the current activation.
    pub fault_outs: Vec<(FaultId, ExecOutcome)>,
    /// Swap buffer for draining `watch_changed` without losing capacity.
    pub changed: Vec<SignalId>,
    /// Dense changed-this-delta flags (reset after each detection).
    pub changed_flag: Vec<bool>,
    /// Edge-node worklist of the current delta.
    pub nodes: Vec<BehavioralId>,
    /// Sensitivity terms on changed signals.
    pub terms: Vec<(EdgeKind, SignalId)>,
    /// Per-input lane planes of the bit-parallel RTL batch path.
    pub planes: Vec<LanePlanes>,
    /// Output lane plane of the batch path.
    pub out_plane: LanePlanes,
    /// `(batch, lane, fault)` slots of the current node's candidates.
    pub slots: Vec<(u32, u8, FaultId)>,
}

impl Workspace {
    /// Returns a fault-update batch, recycling its value buffers.
    pub fn put_news(&mut self, mut v: Vec<(FaultId, LogicVec)>) {
        for (_, buf) in v.drain(..) {
            self.bufs.put(buf);
        }
        self.news.put(v);
    }
}
