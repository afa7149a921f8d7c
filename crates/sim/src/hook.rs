//! The hook a fault engine attaches to the good simulator's settle loop.
//!
//! [`Simulator`](crate::Simulator) runs the paper's Fig. 4 event loop once,
//! for every network; `Simulator<'d, H>` calls its [`Hook`] `H` at each
//! point where fault work attaches. [`NoHook`] (every method the empty
//! default) is the good simulator, and the concurrent engine of
//! `eraser-core` a simulator whose hook is its fault state. Dispatch is
//! static.

use crate::evaluator::Evaluator;
use crate::interp::{ExecCtx, ExecOutcome, NoopMonitor, SlotWrite};
use crate::store::ValueStore;
use eraser_ir::{BehavioralId, EdgeKind, RtlNodeId, SignalId};
use eraser_logic::LogicVec;

/// The good network as a hook reads it: the evaluator every node runs on,
/// the committed values and the edge latch.
#[derive(Debug, Clone)]
pub struct Good<'d> {
    pub(crate) eval: Evaluator<'d>,
    pub(crate) values: ValueStore,
    /// Values as of the last edge-detection point, for all signals watched
    /// by edge-triggered nodes.
    pub(crate) edge_prev: Vec<LogicVec>,
}

impl<'d> Good<'d> {
    /// The evaluator every node of the design runs on.
    #[inline]
    pub fn eval(&self) -> &Evaluator<'d> {
        &self.eval
    }

    /// The committed good values.
    #[inline]
    pub fn values(&self) -> &ValueStore {
        &self.values
    }

    /// `sig`'s good value as of the last edge-detection point.
    #[inline]
    pub fn edge_prev(&self, sig: SignalId) -> &LogicVec {
        &self.edge_prev[sig.index()]
    }
}

/// What a [`Simulator`](crate::Simulator) calls at each attachment point of
/// its settle loop, in loop order.
pub trait Hook {
    /// RTL node `id` evaluated on the good network; the commit of the good
    /// output follows.
    #[inline]
    fn rtl_evaluated(&mut self, _good: &Good<'_>, _id: RtlNodeId) {}

    /// Behavioral node `id` activates — `edge` is its index among the
    /// delta's edge activations ([`Hook::edge`]), `None` for a
    /// level-sensitive node, which fires in every network. Runs the good
    /// body into `out` (which still holds the last activation's outcome:
    /// where only faults fired, the hook empties it instead) and adds to
    /// `targets` what else the activation writes by blocking assignment.
    /// Every target is then committed, in target order.
    #[inline]
    fn activate(
        &mut self,
        good: &Good<'_>,
        ctx: &mut ExecCtx,
        id: BehavioralId,
        _edge: Option<usize>,
        out: &mut ExecOutcome,
        _targets: &mut Vec<SignalId>,
    ) {
        good.eval
            .behavioral(id, &good.values, &mut NoopMonitor, ctx, out);
    }

    /// The activation's blocking targets are committed; `block` is the
    /// index its NBA block gets if it queues one ([`Hook::nba_block`]).
    /// Returns whether it queued non-blocking writes of its own, so that
    /// it gets an NBA block even without good ones.
    #[inline]
    fn activation_done(&mut self, _block: usize, _out: &ExecOutcome) -> bool {
        false
    }

    /// `value` is about to be stored to `sig`. `good_wrote`: the write
    /// behind it reached every network (input drives, RTL outputs, targets
    /// the good body wrote); `writes`: the good writes it folds, in
    /// execution order — at an NBA commit just those to `sig` (none where
    /// only the hook's networks wrote it), at a blocking commit all of the
    /// activation's blocking writes; empty outside behavioral commits.
    /// Returns whether state the hook keeps on `sig` changed: fanout is
    /// scheduled on that or a good change.
    #[inline]
    fn commit(
        &mut self,
        _good: &Good<'_>,
        _sig: SignalId,
        _value: &LogicVec,
        _good_wrote: bool,
        _writes: &[SlotWrite],
    ) -> bool {
        false
    }

    /// An edge-triggered node's sensitivity list `edges` has a term on a
    /// signal changed since the edge latch (`changed`, dense by signal);
    /// `good_fired` says one of those fired on the good network. Returns
    /// whether the node activates; if it does, `index` is its index among
    /// the delta's edge activations ([`Hook::activate`]).
    #[inline]
    fn edge(
        &mut self,
        _good: &Good<'_>,
        _index: usize,
        _edges: &[(EdgeKind, SignalId)],
        _changed: &[bool],
        good_fired: bool,
    ) -> bool {
        good_fired
    }

    /// The edge latch took the values of `changed`.
    #[inline]
    fn edges_latched(&mut self, _changed: &[SignalId]) {}

    /// NBA block `block` commits next: adds to `targets` what else it
    /// writes. Every target is then committed, in target order, with the
    /// block's good writes to it folded — the block's writes are ordered
    /// by target once, so each [`Hook::commit`] gets just its target's
    /// run. A register bank (one block for every flop on a clock) commits
    /// in one pass.
    #[inline]
    fn nba_block(&mut self, _block: usize, _targets: &mut Vec<SignalId>) {}

    /// The NBA region is committed; write values drawn from the `ctx` of
    /// [`Hook::activate`] go back to it. Returns whether the hook's state
    /// moved in a way that needs another delta.
    #[inline]
    fn nba_done(&mut self, _ctx: &mut ExecCtx) -> bool {
        false
    }

    /// A run of behavioral activations opens (`true`) or closes: a
    /// delta's edge activations, or consecutive level-sensitive ones in
    /// the active region's rank order, between RTL evaluations.
    #[inline]
    fn behavioral_span(&mut self, _open: bool) {}

    /// A settle step ended after `deltas` delta cycles.
    #[inline]
    fn settled(&mut self, _deltas: u64) {}
}

/// The hook of the plain good simulator: nothing attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl Hook for NoHook {}
