//! The one evaluator switch.
//!
//! Every simulated network — the good simulator's, the compiled
//! baseline's, the concurrent engine's good network and each of its fault
//! views — evaluates RTL nodes and behavioral bodies through an
//! [`Evaluator`]; the networks differ only in the [`ValueSource`] they hand
//! it. Which backend runs (tree walker or compiled tapes) is decided here
//! and nowhere else, so retiring either one is an edit to this file.

use crate::interp::{execute_into, execute_tape_into, ExecCtx, ExecMonitor, ExecOutcome};
use crate::rtl_eval::eval_rtl_node_into;
use eraser_ir::{
    run_tape, tapes_for_backend, BehavioralId, Design, EvalBackend, RtlNodeId, TapeProgram,
    TapeRef, ValueSource,
};
use eraser_logic::LogicVec;

/// A design plus the backend its nodes are evaluated on: the tree walker,
/// or a tape program — compiled privately, or shared from a campaign-wide
/// compilation (what fault-parallel workers and per-fault baselines hold,
/// so the design is lowered once per campaign).
#[derive(Debug, Clone)]
pub struct Evaluator<'d> {
    design: &'d Design,
    tapes: Option<TapeRef<'d>>,
}

impl<'d> Evaluator<'d> {
    /// The tree walker over `design`.
    pub fn tree(design: &'d Design) -> Self {
        Self::shared(design, None)
    }

    /// The evaluator for `backend`, compiling a private tape program for
    /// [`EvalBackend::Tape`].
    pub fn for_backend(design: &'d Design, backend: EvalBackend) -> Self {
        Evaluator {
            design,
            tapes: tapes_for_backend(design, backend),
        }
    }

    /// The evaluator over a shared pre-compiled program (`None`: the tree
    /// walker).
    pub fn shared(design: &'d Design, tapes: Option<&'d TapeProgram>) -> Self {
        Evaluator {
            design,
            tapes: tapes.map(TapeRef::Shared),
        }
    }

    /// The design being evaluated.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// Evaluates RTL node `id` into `out`, reading its inputs from `src`
    /// by borrow and drawing temporaries from `ctx`.
    #[inline]
    pub fn rtl<S: ValueSource + ?Sized>(
        &self,
        id: RtlNodeId,
        src: &S,
        ctx: &mut ExecCtx,
        out: &mut LogicVec,
    ) {
        match &self.tapes {
            Some(t) => run_tape(t.program().rtl(id.index()), src, &mut ctx.tape, out),
            None => eval_rtl_node_into(
                self.design,
                self.design.rtl_node(id),
                src,
                &mut ctx.scratch,
                out,
            ),
        }
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
        match &self.tapes {
            Some(t) => execute_tape_into(
                self.design,
                node,
                t.program().behavioral(id.index()),
                src,
                monitor,
                ctx,
                out,
            ),
            None => execute_into(self.design, node, src, monitor, ctx, out),
        }
    }
}
