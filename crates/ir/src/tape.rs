//! Compiled evaluation tapes — the second evaluation backend.
//!
//! The tree walker ([`eval_expr_into`](crate::eval::eval_expr_into)) pays a
//! dispatch cost per AST node on every evaluation: pointer-chasing through
//! `Box`ed children, a `match` per node, and scratch-buffer churn. This
//! module removes that steady-state overhead GSIM-style by **lowering** each
//! expression once into a flat [`EvalTape`] — a topologically-ordered (the
//! post-order of the tree) sequence of register-indexed instructions over a
//! slot arena, with constants pre-materialized in a pool and leaf operands
//! (signals, constants) referenced *by borrow* rather than loaded — and a
//! tight interpreter loop ([`run_tape`]) that replays it.
//!
//! Each instruction computes its operator through [`crate::ops`], the one
//! definition of the operator semantics the tree walker calls too, so both
//! backends agree by construction; single-word speed comes from the inline
//! arms of the `LogicVec` operators. The tape removes only the walk: no
//! `Box` chasing, no per-node `match` on the tree, no scratch churn. It
//! has no two-state tier: the word path of the tree walker (see
//! [`crate::eval`]) is not compiled into tapes.
//!
//! Slots are allocated by a free-list **keyed on word count**, so a slot is
//! only ever reused at the same storage shape: after the first execution of
//! a tape every slot holds correctly-sized storage and steady-state
//! replays perform **zero heap allocations** (the same ≤ 64-bit caveat as
//! the tree walker applies to wider designs).
//!
//! [`TapeProgram::compile`] lowers every RTL node of a design once; the
//! program is immutable and shared by reference across fault-parallel
//! shard workers. Behavioral bodies are not lowered: their right-hand
//! sides, lvalue indices and branch decisions run on the tree walker, word
//! path first, on either backend, and every branch outcome comes from
//! [`DecisionEval::evaluate_with`](crate::vdg::DecisionEval::evaluate_with).
//! [`EvalBackend`] is the user-facing knob (`tree` | `tape`, tree by
//! default); the tree walker remains the differential-testing oracle, and
//! both backends are bit-identical on every expression (see the
//! `tape_parity` property suite).

use crate::analysis::{binary_width, unary_width};
use crate::design::Design;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::ids::SignalId;
use crate::node::{RtlNode, RtlOp};
use crate::ops;
use crate::ValueSource;
use eraser_logic::LogicVec;

/// Which expression-evaluation backend an engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalBackend {
    /// Walk `Expr` trees node by node (the reference oracle).
    #[default]
    Tree,
    /// Evaluate RTL nodes by pre-compiled instruction tapes ([`EvalTape`]);
    /// behavioral bodies run on the tree walker under both backends.
    Tape,
}

impl std::fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalBackend::Tree => write!(f, "tree"),
            EvalBackend::Tape => write!(f, "tape"),
        }
    }
}

impl std::str::FromStr for EvalBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tree" => Ok(EvalBackend::Tree),
            "tape" => Ok(EvalBackend::Tape),
            other => Err(format!("unknown eval backend `{other}` (tree|tape)")),
        }
    }
}

/// An instruction operand: a tape slot, a design signal (read through the
/// [`ValueSource`] by borrow), or a pre-materialized constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A temporary produced by an earlier instruction.
    Slot(u16),
    /// A signal, read live from the value source.
    Sig(SignalId),
    /// An entry of the tape's constant pool.
    Const(u16),
}

/// One instruction of an [`EvalTape`]. Destinations are always slots and
/// never alias any operand of the same instruction (three-address form).
#[derive(Debug, Clone, PartialEq)]
pub enum TapeInstr {
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        src: Src,
        /// Destination slot.
        dst: u16,
    },
    /// Binary operator.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Src,
        /// Right operand.
        rhs: Src,
        /// Destination slot.
        dst: u16,
    },
    /// Ternary select (an unknown condition merges the branches).
    Mux {
        /// Condition (reduced to a truth value).
        cond: Src,
        /// Value when true.
        then_: Src,
        /// Value when false.
        else_: Src,
        /// Destination slot.
        dst: u16,
    },
    /// Concatenation; parts are LSB-first.
    Concat {
        /// Parts, LSB-first.
        parts: Box<[Src]>,
        /// Destination slot.
        dst: u16,
    },
    /// Replication.
    Replicate {
        /// Replicated value.
        src: Src,
        /// Copy count (> 0).
        n: u32,
        /// Destination slot.
        dst: u16,
    },
    /// Constant part select of a signal.
    Slice {
        /// Signal being selected from.
        sig: SignalId,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
        /// Destination slot.
        dst: u16,
    },
    /// Variable bit select of a signal (1-bit result; unknown or
    /// out-of-range indices read `X`).
    Index {
        /// Signal being selected from.
        sig: SignalId,
        /// Bit index operand.
        idx: Src,
        /// Destination slot.
        dst: u16,
    },
    /// Indexed part select of a signal.
    IndexedPart {
        /// Signal being selected from.
        sig: SignalId,
        /// Start (low bit) operand.
        start: Src,
        /// Width of the selection.
        width: u32,
        /// Destination slot.
        dst: u16,
    },
}

impl TapeInstr {
    /// The destination slot this instruction writes.
    pub fn dst(&self) -> u16 {
        match self {
            TapeInstr::Unary { dst, .. }
            | TapeInstr::Binary { dst, .. }
            | TapeInstr::Mux { dst, .. }
            | TapeInstr::Concat { dst, .. }
            | TapeInstr::Replicate { dst, .. }
            | TapeInstr::Slice { dst, .. }
            | TapeInstr::Index { dst, .. }
            | TapeInstr::IndexedPart { dst, .. } => *dst,
        }
    }

    /// Applies `f` to every slot reference (operands and destination).
    fn remap_slots(&mut self, f: &dyn Fn(u16) -> u16) {
        let fix = |s: &mut Src| {
            if let Src::Slot(i) = s {
                *i = f(*i);
            }
        };
        match self {
            TapeInstr::Unary { src, dst, .. } | TapeInstr::Replicate { src, dst, .. } => {
                fix(src);
                *dst = f(*dst);
            }
            TapeInstr::Binary { lhs, rhs, dst, .. } => {
                fix(lhs);
                fix(rhs);
                *dst = f(*dst);
            }
            TapeInstr::Mux {
                cond,
                then_,
                else_,
                dst,
            } => {
                fix(cond);
                fix(then_);
                fix(else_);
                *dst = f(*dst);
            }
            TapeInstr::Concat { parts, dst } => {
                for p in parts.iter_mut() {
                    fix(p);
                }
                *dst = f(*dst);
            }
            TapeInstr::Slice { dst, .. } => *dst = f(*dst),
            TapeInstr::Index { idx, dst, .. } => {
                fix(idx);
                *dst = f(*dst);
            }
            TapeInstr::IndexedPart { start, dst, .. } => {
                fix(start);
                *dst = f(*dst);
            }
        }
    }
}

/// A compiled expression: a flat instruction sequence over a slot arena.
///
/// Produced once by [`compile_expr`] (or [`TapeProgram::compile`] for a
/// whole design) and replayed any number of times by [`run_tape`]. Tapes
/// are immutable and `Sync`, so one compilation is shared across
/// fault-parallel workers.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTape {
    instrs: Box<[TapeInstr]>,
    consts: Box<[LogicVec]>,
    root: Src,
    n_slots: u16,
    /// Word-count class of each slot (1 for everything ≤ 64 bits) — the
    /// shape a slot's storage settles into. [`TapeProgram::compile`] uses
    /// these to renumber slots so one shared [`TapeScratch`] never reuses
    /// a slot index at two different word counts across tapes.
    slot_classes: Box<[u16]>,
    /// Forced result width (RTL node outputs); `None` leaves the natural
    /// expression width.
    out_width: Option<u32>,
}

impl EvalTape {
    /// Number of instructions (0 for a leaf expression).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for a leaf expression (plain signal or constant reference).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Returns a copy with the result forced (zero-extended / truncated)
    /// to `width` — what RTL node outputs need.
    fn with_out_width(mut self, width: u32) -> Self {
        self.out_width = Some(width);
        self
    }
}

/// Reusable execution state for tapes: the slot arena. Hold one per
/// engine (or worker thread); slots keep their storage across runs, so
/// steady-state execution never allocates (≤ 64-bit values; wider slots
/// reuse storage at a stable word count because the lowering's slot
/// allocator never mixes word counts in one slot).
#[derive(Debug, Clone, Default)]
pub struct TapeScratch {
    slots: Vec<LogicVec>,
}

impl TapeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Word-count class of a width (1 for everything ≤ 64).
#[inline]
fn words_of(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

// ---- lowering ----

/// Expression lowering state: emitted instructions, the constant pool, and
/// a slot allocator whose free lists are keyed by word count (so a slot is
/// only ever reused at one storage shape).
struct Lowerer<'w> {
    instrs: Vec<TapeInstr>,
    consts: Vec<LogicVec>,
    n_slots: u16,
    /// Word-count class of each allocated slot.
    slot_classes: Vec<u16>,
    /// Free slots per word-count class (index 0 unused).
    free: Vec<Vec<u16>>,
    sig_width: &'w dyn Fn(SignalId) -> u32,
}

impl<'w> Lowerer<'w> {
    fn new(sig_width: &'w dyn Fn(SignalId) -> u32) -> Self {
        Lowerer {
            instrs: Vec::new(),
            consts: Vec::new(),
            n_slots: 0,
            slot_classes: Vec::new(),
            free: Vec::new(),
            sig_width,
        }
    }

    fn alloc(&mut self, width: u32) -> u16 {
        let class = words_of(width);
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        if let Some(slot) = self.free[class].pop() {
            return slot;
        }
        let slot = self.n_slots;
        self.n_slots = self
            .n_slots
            .checked_add(1)
            .expect("expression needs more than 65535 evaluation slots");
        self.slot_classes.push(class as u16);
        slot
    }

    /// Releases an operand for reuse (slots only; signal and constant
    /// operands are borrows).
    fn release(&mut self, src: Src, width: u32) {
        if let Src::Slot(s) = src {
            self.free[words_of(width)].push(s);
        }
    }

    fn intern_const(&mut self, v: &LogicVec) -> Src {
        // Small pools; linear dedup keeps repeated literals (zero
        // constants) from bloating the tape.
        if let Some(i) = self.consts.iter().position(|c| c == v) {
            return Src::Const(i as u16);
        }
        let idx = u16::try_from(self.consts.len()).expect("constant pool overflow");
        self.consts.push(v.clone());
        Src::Const(idx)
    }

    /// Lowers `e`, returning its operand reference and result width.
    fn lower(&mut self, e: &Expr) -> (Src, u32) {
        match e {
            Expr::Const(v) => (self.intern_const(v), v.width()),
            Expr::Signal(s) => (Src::Sig(*s), (self.sig_width)(*s)),
            Expr::Unary(op, sub) => {
                let (src, w) = self.lower(sub);
                let ow = unary_width(*op, w);
                let dst = self.alloc(ow);
                self.instrs.push(TapeInstr::Unary { op: *op, src, dst });
                self.release(src, w);
                (Src::Slot(dst), ow)
            }
            Expr::Binary(op, l, r) => {
                let (lhs, lw) = self.lower(l);
                let (rhs, rw) = self.lower(r);
                let ow = binary_width(*op, lw, rw);
                let dst = self.alloc(ow);
                self.instrs.push(TapeInstr::Binary {
                    op: *op,
                    lhs,
                    rhs,
                    dst,
                });
                self.release(lhs, lw);
                self.release(rhs, rw);
                (Src::Slot(dst), ow)
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let (c, cw) = self.lower(cond);
                let (t, tw) = self.lower(then_e);
                let (el, ew) = self.lower(else_e);
                let ow = tw.max(ew);
                let dst = self.alloc(ow);
                self.instrs.push(TapeInstr::Mux {
                    cond: c,
                    then_: t,
                    else_: el,
                    dst,
                });
                self.release(c, cw);
                self.release(t, tw);
                self.release(el, ew);
                (Src::Slot(dst), ow)
            }
            Expr::Concat(parts) => {
                assert!(!parts.is_empty(), "concat needs at least one part");
                // Source order is MSB-first; assemble LSB-first.
                let lowered: Vec<(Src, u32)> = parts.iter().map(|p| self.lower(p)).collect();
                let total: u32 = lowered.iter().map(|(_, w)| w).sum();
                let dst = self.alloc(total);
                let lsb_first: Vec<Src> = lowered.iter().rev().map(|&(src, _)| src).collect();
                self.instrs.push(TapeInstr::Concat {
                    parts: lsb_first.into_boxed_slice(),
                    dst,
                });
                for (src, w) in lowered {
                    self.release(src, w);
                }
                (Src::Slot(dst), total)
            }
            Expr::Replicate(n, sub) => {
                assert!(*n > 0, "replication count must be positive");
                let (src, w) = self.lower(sub);
                let total = w * n;
                let dst = self.alloc(total);
                self.instrs.push(TapeInstr::Replicate { src, n: *n, dst });
                self.release(src, w);
                (Src::Slot(dst), total)
            }
            Expr::Slice { base, hi, lo } => {
                let ow = hi - lo + 1;
                let dst = self.alloc(ow);
                self.instrs.push(TapeInstr::Slice {
                    sig: *base,
                    hi: *hi,
                    lo: *lo,
                    dst,
                });
                (Src::Slot(dst), ow)
            }
            Expr::Index { base, index } => {
                let (idx, iw) = self.lower(index);
                let dst = self.alloc(1);
                self.instrs.push(TapeInstr::Index {
                    sig: *base,
                    idx,
                    dst,
                });
                self.release(idx, iw);
                (Src::Slot(dst), 1)
            }
            Expr::IndexedPart { base, start, width } => {
                let (st, sw) = self.lower(start);
                let dst = self.alloc(*width);
                self.instrs.push(TapeInstr::IndexedPart {
                    sig: *base,
                    start: st,
                    width: *width,
                    dst,
                });
                self.release(st, sw);
                (Src::Slot(dst), *width)
            }
        }
    }

    fn finish(self, root: Src) -> EvalTape {
        // Post-order lowering guarantees the root of a non-leaf tape is
        // the destination of the final instruction — `run_tape` relies on
        // it to execute that instruction straight into the caller's
        // output buffer.
        debug_assert!(match (self.instrs.last(), root) {
            (None, _) => true,
            (Some(last), Src::Slot(d)) => last.dst() == d,
            (Some(_), _) => false,
        });
        EvalTape {
            instrs: self.instrs.into_boxed_slice(),
            consts: self.consts.into_boxed_slice(),
            root,
            n_slots: self.n_slots,
            slot_classes: self.slot_classes.into_boxed_slice(),
            out_width: None,
        }
    }
}

/// Lowers one expression into a tape. `sig_width` maps signals to their
/// declared widths (the same width model as
/// [`expr_width_with`](crate::analysis::expr_width_with)).
pub fn compile_expr(expr: &Expr, sig_width: &dyn Fn(SignalId) -> u32) -> EvalTape {
    let mut l = Lowerer::new(sig_width);
    let (root, _) = l.lower(expr);
    l.finish(root)
}

// ---- interpretation ----

/// Resolves an operand to a borrowed value.
#[inline]
fn res<'a, S: ValueSource + ?Sized>(
    op: Src,
    slots: &'a [LogicVec],
    consts: &'a [LogicVec],
    src: &'a S,
) -> &'a LogicVec {
    match op {
        Src::Slot(i) => &slots[i as usize],
        Src::Const(i) => &consts[i as usize],
        Src::Sig(s) => src.value(s),
    }
}

/// Executes `tape` against `src`, writing the result into `out` (reshaped
/// as needed) and running entirely out of `scratch`'s slot arena. The
/// final instruction executes straight into `out` — a leaf tape is a
/// single copy, and a one-instruction tape (every RTL node) never touches
/// a slot at all. Bit-identical to
/// [`eval_expr_into`](crate::eval::eval_expr_into) on the expression the
/// tape was compiled from.
pub fn run_tape<S: ValueSource + ?Sized>(
    tape: &EvalTape,
    src: &S,
    scratch: &mut TapeScratch,
    out: &mut LogicVec,
) {
    if scratch.slots.len() < tape.n_slots as usize {
        scratch
            .slots
            .resize_with(tape.n_slots as usize, LogicVec::default);
    }
    let consts = &tape.consts;
    match tape.instrs.split_last() {
        None => out.assign_from(res(tape.root, &scratch.slots, consts, src)),
        Some((last, init)) => {
            for ins in init {
                let dst = ins.dst() as usize;
                let mut d = std::mem::take(&mut scratch.slots[dst]);
                exec_instr(ins, &scratch.slots, consts, src, &mut d);
                scratch.slots[dst] = d;
            }
            // Post-order lowering guarantees `last` computes the root.
            exec_instr(last, &scratch.slots, consts, src, out);
        }
    }
    if let Some(w) = tape.out_width {
        if out.width() != w {
            out.resize_assign(w);
        }
    }
}

/// Executes one instruction, reading operands from `slots` / `consts` /
/// `src` by borrow and writing the result into `d` (which never aliases an
/// operand: the caller took the destination slot out of the arena, or
/// passes its own output buffer).
fn exec_instr<S: ValueSource + ?Sized>(
    ins: &TapeInstr,
    slots: &[LogicVec],
    consts: &[LogicVec],
    src: &S,
    d: &mut LogicVec,
) {
    let arg = |op: Src| res(op, slots, consts, src);
    match ins {
        TapeInstr::Unary { op, src: s, .. } => ops::unary(*op, arg(*s), d),
        TapeInstr::Binary { op, lhs, rhs, .. } => ops::binary(*op, arg(*lhs), arg(*rhs), d),
        TapeInstr::Mux {
            cond, then_, else_, ..
        } => ops::mux(arg(*cond).truth(), arg(*then_), arg(*else_), d),
        TapeInstr::Concat { parts, .. } => ops::concat(parts.iter().map(|&p| arg(p)), d),
        TapeInstr::Replicate { src: s, n, .. } => ops::replicate(*n, arg(*s), d),
        TapeInstr::Slice { sig, hi, lo, .. } => src.value(*sig).slice_into(*hi, *lo, d),
        TapeInstr::Index { sig, idx, .. } => ops::index(src.value(*sig), arg(*idx), d),
        TapeInstr::IndexedPart {
            sig, start, width, ..
        } => ops::indexed_part(src.value(*sig), arg(*start), *width, d),
    }
}

// ---- design-level programs ----

/// Every tape of a design: one per RTL node, its result forced to the
/// output signal's width. Compiled once per design and shared (by
/// reference) across engines and fault-parallel shard workers.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeProgram {
    rtl: Vec<EvalTape>,
}

impl TapeProgram {
    /// The program for `backend`: `None` for the tree walker, a full
    /// compilation for the tape backend — the one place the
    /// backend-to-compilation dispatch lives.
    pub fn for_backend(design: &Design, backend: EvalBackend) -> Option<TapeProgram> {
        match backend {
            EvalBackend::Tree => None,
            EvalBackend::Tape => Some(TapeProgram::compile(design)),
        }
    }

    /// Lowers every RTL node of `design`, then renumbers slots so the
    /// whole program shares one arena layout.
    pub fn compile(design: &Design) -> TapeProgram {
        let sig_width = |s: SignalId| design.signal(s).width;
        let mut program = TapeProgram {
            rtl: design
                .rtl_nodes()
                .iter()
                .map(|n| compile_rtl_node(n, &sig_width))
                .collect(),
        };
        program.harmonize_slots();
        program
    }

    /// Renumbers every RTL tape's slots into word-count-class-segregated
    /// regions of one shared arena layout: slot index `i` means the same
    /// storage shape in *every* tape of the program, so a [`TapeScratch`]
    /// driven through many tapes (the settle loop visits every RTL node)
    /// never reshapes a slot's storage back and forth between word counts
    /// — the wide-design analogue of the inline-value zero-allocation
    /// guarantee.
    fn harmonize_slots(&mut self) {
        // Widest per-class demand across all tapes.
        let mut max_per_class: Vec<u16> = Vec::new();
        let mut count: Vec<u16> = Vec::new();
        for t in &self.rtl {
            count.clear();
            for &c in t.slot_classes.iter() {
                let c = c as usize;
                if count.len() <= c {
                    count.resize(c + 1, 0);
                }
                count[c] += 1;
            }
            if max_per_class.len() < count.len() {
                max_per_class.resize(count.len(), 0);
            }
            for (c, &n) in count.iter().enumerate() {
                max_per_class[c] = max_per_class[c].max(n);
            }
        }
        // Contiguous region per class.
        let mut offsets = vec![0u16; max_per_class.len()];
        let mut total: u16 = 0;
        for (c, &n) in max_per_class.iter().enumerate() {
            offsets[c] = total;
            total = total.checked_add(n).expect("shared slot arena overflow");
        }
        let mut global_classes = vec![0u16; total as usize];
        for (c, &n) in max_per_class.iter().enumerate() {
            for k in 0..n {
                global_classes[(offsets[c] + k) as usize] = c as u16;
            }
        }
        let global_classes = global_classes.into_boxed_slice();
        let mut next_in_class = vec![0u16; max_per_class.len()];
        for t in &mut self.rtl {
            next_in_class.fill(0);
            let map: Vec<u16> = t
                .slot_classes
                .iter()
                .map(|&c| {
                    let c = c as usize;
                    let idx = offsets[c] + next_in_class[c];
                    next_in_class[c] += 1;
                    idx
                })
                .collect();
            let f = move |i: u16| map[i as usize];
            for ins in t.instrs.iter_mut() {
                ins.remap_slots(&f);
            }
            if let Src::Slot(i) = &mut t.root {
                *i = f(*i);
            }
            t.n_slots = total;
            t.slot_classes = global_classes.clone();
        }
    }

    /// The tape of RTL node `index`.
    #[inline]
    pub fn rtl(&self, index: usize) -> &EvalTape {
        &self.rtl[index]
    }
}

/// A tape program an engine holds: compiled privately or shared from a
/// campaign-level compilation (what fault-parallel shard workers receive).
#[derive(Debug, Clone)]
pub enum TapeRef<'a> {
    /// Privately compiled and owned.
    Owned(Box<TapeProgram>),
    /// Borrowed from a campaign-wide compilation.
    Shared(&'a TapeProgram),
}

impl TapeRef<'_> {
    /// The program.
    #[inline]
    pub fn program(&self) -> &TapeProgram {
        match self {
            TapeRef::Owned(p) => p,
            TapeRef::Shared(p) => p,
        }
    }
}

/// The tapes for `backend`: `None` for the tree walker, a freshly compiled
/// owned program for the tape backend.
pub fn tapes_for_backend(design: &Design, backend: EvalBackend) -> Option<TapeRef<'static>> {
    TapeProgram::for_backend(design, backend).map(|p| TapeRef::Owned(Box::new(p)))
}

/// The source-equivalent expression of an RTL node — lowering reuses the
/// expression path so node and expression semantics can never diverge.
fn rtl_to_expr(node: &RtlNode) -> Expr {
    let sig = |k: usize| Expr::Signal(node.inputs[k]);
    match &node.op {
        RtlOp::Buf => sig(0),
        RtlOp::Const(c) => Expr::Const(c.clone()),
        RtlOp::Unary(u) => Expr::Unary(*u, Box::new(sig(0))),
        RtlOp::Binary(b) => Expr::Binary(*b, Box::new(sig(0)), Box::new(sig(1))),
        RtlOp::Mux => Expr::Ternary {
            cond: Box::new(sig(0)),
            then_e: Box::new(sig(1)),
            else_e: Box::new(sig(2)),
        },
        RtlOp::Concat => Expr::Concat(node.inputs.iter().map(|s| Expr::Signal(*s)).collect()),
        RtlOp::Replicate(n) => Expr::Replicate(*n, Box::new(sig(0))),
        RtlOp::Slice { hi, lo } => Expr::Slice {
            base: node.inputs[0],
            hi: *hi,
            lo: *lo,
        },
        RtlOp::Index => Expr::Index {
            base: node.inputs[0],
            index: Box::new(sig(1)),
        },
        RtlOp::IndexedPart { width } => Expr::IndexedPart {
            base: node.inputs[0],
            start: Box::new(sig(1)),
            width: *width,
        },
    }
}

/// Lowers one RTL node; the result is forced to the output signal's width
/// exactly as the kernels' `eval_rtl_op_with` does after evaluation.
fn compile_rtl_node(node: &RtlNode, sig_width: &dyn Fn(SignalId) -> u32) -> EvalTape {
    compile_expr(&rtl_to_expr(node), sig_width).with_out_width(sig_width(node.output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_expr_cloning;

    fn w8(_: SignalId) -> u32 {
        8
    }

    fn run(tape: &EvalTape, vals: &[LogicVec]) -> LogicVec {
        let mut scratch = TapeScratch::new();
        let mut out = LogicVec::default();
        run_tape(tape, vals, &mut scratch, &mut out);
        out
    }

    #[test]
    fn leaf_signal_has_no_instructions() {
        let tape = compile_expr(&Expr::sig(SignalId(0)), &w8);
        assert!(tape.is_empty());
        let vals = vec![LogicVec::from_u64(8, 0x5a)];
        assert_eq!(run(&tape, &vals).to_u64(), Some(0x5a));
    }

    #[test]
    fn binary_fast_path_matches_oracle() {
        let e = Expr::bin(
            BinaryOp::Add,
            Expr::sig(SignalId(0)),
            Expr::bin(BinaryOp::Xor, Expr::sig(SignalId(1)), Expr::val(8, 0x0f)),
        );
        let tape = compile_expr(&e, &w8);
        let vals = vec![LogicVec::from_u64(8, 200), LogicVec::from_u64(8, 0x33)];
        assert_eq!(run(&tape, &vals), eval_expr_cloning(&e, &vals));
    }

    #[test]
    fn slots_are_reused_within_a_word_class() {
        // A deep chain needs only a bounded number of slots thanks to the
        // free-list allocator.
        let mut e = Expr::sig(SignalId(0));
        for _ in 0..32 {
            e = Expr::bin(BinaryOp::Add, e, Expr::sig(SignalId(1)));
        }
        let tape = compile_expr(&e, &w8);
        assert!(tape.n_slots <= 3, "slots: {}", tape.n_slots);
        let vals = vec![LogicVec::from_u64(8, 1), LogicVec::from_u64(8, 3)];
        assert_eq!(run(&tape, &vals), eval_expr_cloning(&e, &vals));
    }

    #[test]
    fn mux_merges_on_unknown_condition() {
        let e = Expr::Ternary {
            cond: Box::new(Expr::sig(SignalId(0))),
            then_e: Box::new(Expr::sig(SignalId(1))),
            else_e: Box::new(Expr::sig(SignalId(2))),
        };
        let tape = compile_expr(&e, &w8);
        for cond in [
            LogicVec::from_u64(8, 1),
            LogicVec::from_u64(8, 0),
            LogicVec::new_x(8),
        ] {
            let vals = vec![
                cond,
                LogicVec::from_u64(8, 0b1100_1010),
                LogicVec::from_u64(8, 0b1010_1010),
            ];
            assert_eq!(run(&tape, &vals), eval_expr_cloning(&e, &vals));
        }
    }

    #[test]
    fn out_width_forces_the_result() {
        let tape = compile_expr(&Expr::sig(SignalId(0)), &w8).with_out_width(4);
        let vals = vec![LogicVec::from_u64(8, 0xff)];
        let out = run(&tape, &vals);
        assert_eq!(out.width(), 4);
        assert_eq!(out.to_u64(), Some(0xf));
    }

    #[test]
    fn constants_are_interned() {
        let e = Expr::bin(
            BinaryOp::Or,
            Expr::bin(BinaryOp::And, Expr::sig(SignalId(0)), Expr::val(8, 7)),
            Expr::bin(BinaryOp::And, Expr::sig(SignalId(1)), Expr::val(8, 7)),
        );
        let tape = compile_expr(&e, &w8);
        assert_eq!(tape.consts.len(), 1);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("tape".parse::<EvalBackend>().unwrap(), EvalBackend::Tape);
        assert_eq!("TREE".parse::<EvalBackend>().unwrap(), EvalBackend::Tree);
        assert!("fast".parse::<EvalBackend>().is_err());
        assert_eq!(EvalBackend::Tape.to_string(), "tape");
    }
}
