//! The engine's reusable buffers: the [`Workspace`], its [`Pool`]s, and
//! the per-activation records that cycle through them.

use eraser_fault::FaultId;
use eraser_ir::EvalScratch;
use eraser_logic::{LanePlanes, LogicVec};
use eraser_sim::{ExecOutcome, SlotWrite};

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

/// The fault side of one queued NBA block, whose good writes the kernel
/// holds.
///
/// Fault writes are stored flat (grouped per fault via `executed` ranges)
/// so the whole block is three reusable vectors instead of a vector of
/// vectors.
#[derive(Debug, Default)]
pub(super) struct PendingNba {
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

impl Reuse for Activation {
    fn reset(&mut self) {
        self.good = false;
        self.fault_only.clear();
        self.suppressed.clear();
    }
}

impl Reuse for ExecOutcome {
    fn reset(&mut self) {
        self.clear();
    }
}

impl Reuse for PendingNba {
    fn reset(&mut self) {
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
    /// Redundancy-monitor decision re-evaluation scratch.
    pub mon_scratch: EvalScratch,
    pub ids: Pool<Vec<FaultId>>,
    /// Fault-update batches; returned through [`Workspace::put_news`].
    pub news: Pool<Vec<(FaultId, LogicVec)>>,
    pub outs: Pool<ExecOutcome>,
    pub acts: Pool<Activation>,
    /// Per-fault outcomes of the open activation.
    pub fault_outs: Vec<(FaultId, ExecOutcome)>,
    /// The fault updates of the RTL output being committed.
    pub rtl_news: Vec<(FaultId, LogicVec)>,
    /// Per-input lane planes of the bit-parallel RTL batch path.
    pub planes: Vec<LanePlanes>,
    /// Output lane plane of the batch path.
    pub out_plane: LanePlanes,
}

impl Workspace {
    /// Returns a fault-update batch, recycling its value buffers.
    pub fn put_news(&mut self, v: Vec<(FaultId, LogicVec)>) {
        let v = self.recycle_news(v);
        self.news.put(v);
    }

    /// Empties a fault-update batch, recycling its value buffers.
    pub fn recycle_news(&mut self, mut v: Vec<(FaultId, LogicVec)>) -> Vec<(FaultId, LogicVec)> {
        for (_, buf) in v.drain(..) {
            self.bufs.put(buf);
        }
        v
    }
}
