//! The one evaluator.
//!
//! Every simulated network — the good simulator's (under either settle
//! rule), the concurrent engine's good network and each of its fault
//! views, and every baseline's — evaluates RTL nodes and behavioral bodies
//! through an [`Evaluator`]; the networks differ only in the
//! [`ValueSource`] they hand it. RTL nodes have one evaluator,
//! [`eval_rtl_node_into`]; behavioral code has one, [`execute_into`], on
//! the tree walker, word path first. Both compute every operator through
//! `eraser_ir::ops`.

use crate::interp::{execute_into, ExecCtx, ExecMonitor, ExecOutcome};
use crate::rtl_eval::eval_rtl_node_into;
use eraser_ir::{BehavioralId, Design, RtlNodeId, ValueSource};
use eraser_logic::LogicVec;

/// A design and the evaluators of its nodes.
#[derive(Debug, Clone)]
pub struct Evaluator<'d> {
    design: &'d Design,
}

impl<'d> Evaluator<'d> {
    /// The evaluator over `design`.
    pub fn tree(design: &'d Design) -> Self {
        Evaluator { design }
    }

    /// The design being evaluated.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// Evaluates RTL node `id` into `out`, reading its inputs from `src`
    /// by borrow.
    #[inline]
    pub fn rtl<S: ValueSource + ?Sized>(&self, id: RtlNodeId, src: &S, out: &mut LogicVec) {
        eval_rtl_node_into(self.design, self.design.rtl_node(id), src, out)
    }

    /// Executes one activation of behavioral node `id` reading from `src`,
    /// reporting the path to `monitor`; see [`execute_into`] for the
    /// outcome and scratch contract.
    #[inline]
    pub fn behavioral<S: ValueSource + ?Sized, M: ExecMonitor + ?Sized>(
        &self,
        id: BehavioralId,
        src: &S,
        monitor: &mut M,
        ctx: &mut ExecCtx,
        out: &mut ExecOutcome,
    ) {
        let node = self.design.behavioral(id);
        execute_into(self.design, node, src, monitor, ctx, out)
    }
}
