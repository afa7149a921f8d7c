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
//! Two instruction tiers exist for most operators:
//!
//! * **single-word fast paths** (`Bin64`, `Un64`, `Mux64`, `Concat64`,
//!   `Repl64`) — chosen at lowering time whenever every operand and the
//!   result fit in 64 bits. They read both four-state planes as plain
//!   `u64`s ([`LogicVec::word_planes`]) and write the result with one
//!   masked store ([`LogicVec::assign_word`]), bypassing the general
//!   `LogicVec` operator machinery entirely, and
//! * **general instructions** that delegate to the same in-place `LogicVec`
//!   operators the tree walker uses, so wide values keep identical
//!   semantics by construction.
//!
//! Slots are allocated by a free-list **keyed on word count**, so a slot is
//! only ever reused at the same storage shape: after the first execution of
//! a tape every slot holds correctly-sized storage and steady-state
//! replays perform **zero heap allocations** (the same ≤ 64-bit caveat as
//! the tree walker applies to wider designs).
//!
//! [`TapeProgram::compile`] lowers a whole design — every RTL node and
//! every behavioral body's right-hand sides, lvalue indices and branch
//! decisions — once; the program is immutable and shared by reference
//! across fault-parallel shard workers. [`EvalBackend`] is the user-facing
//! knob (`tree` | `tape`, tree by default); the tree walker remains the
//! differential-testing oracle, and both backends are bit-identical on
//! every expression (see the `tape_parity` property suite).

use crate::design::Design;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::ids::SignalId;
use crate::node::{BehavioralNode, RtlNode, RtlOp};
use crate::stmt::{CaseKind, LValue, Stmt};
use crate::vdg::DecisionEval;
use crate::ValueSource;
use eraser_logic::{LogicBit, LogicVec};

/// Which expression-evaluation backend an engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalBackend {
    /// Walk `Expr` trees node by node (the reference oracle).
    #[default]
    Tree,
    /// Execute pre-compiled instruction tapes ([`EvalTape`]).
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
    /// General unary operator (mirrors the tree walker's `Unary` case).
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        src: Src,
        /// Destination slot.
        dst: u16,
    },
    /// Single-word unary operator; `width` is the operand width (≤ 64).
    Un64 {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        src: Src,
        /// Destination slot.
        dst: u16,
        /// Operand width in bits.
        width: u32,
    },
    /// General binary operator.
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
    /// Single-word binary operator; `width` is the result width (≤ 64).
    Bin64 {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Src,
        /// Right operand.
        rhs: Src,
        /// Destination slot.
        dst: u16,
        /// Result width in bits.
        width: u32,
    },
    /// Ternary select with the tree walker's unknown-condition merge.
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
    /// Single-word ternary; `width` is the result width (≤ 64).
    Mux64 {
        /// Condition (its own width may be anything ≤ 64).
        cond: Src,
        /// Value when true.
        then_: Src,
        /// Value when false.
        else_: Src,
        /// Destination slot.
        dst: u16,
        /// Result width in bits.
        width: u32,
    },
    /// General concatenation; parts are LSB-first.
    Concat {
        /// Parts, LSB-first.
        parts: Box<[Src]>,
        /// Destination slot.
        dst: u16,
    },
    /// Single-word concatenation; each part carries its precomputed LSB
    /// offset.
    Concat64 {
        /// `(part, low-bit offset)`, any order (offsets are disjoint).
        parts: Box<[(Src, u32)]>,
        /// Destination slot.
        dst: u16,
        /// Total width in bits (≤ 64).
        width: u32,
    },
    /// General replication.
    Replicate {
        /// Replicated value.
        src: Src,
        /// Copy count (> 0).
        n: u32,
        /// Destination slot.
        dst: u16,
    },
    /// Single-word replication.
    Repl64 {
        /// Replicated value.
        src: Src,
        /// Copy count (> 0).
        n: u32,
        /// Width of one copy.
        stride: u32,
        /// Destination slot.
        dst: u16,
        /// Total width in bits (≤ 64).
        width: u32,
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
            | TapeInstr::Un64 { dst, .. }
            | TapeInstr::Binary { dst, .. }
            | TapeInstr::Bin64 { dst, .. }
            | TapeInstr::Mux { dst, .. }
            | TapeInstr::Mux64 { dst, .. }
            | TapeInstr::Concat { dst, .. }
            | TapeInstr::Concat64 { dst, .. }
            | TapeInstr::Replicate { dst, .. }
            | TapeInstr::Repl64 { dst, .. }
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
            TapeInstr::Unary { src, dst, .. }
            | TapeInstr::Un64 { src, dst, .. }
            | TapeInstr::Replicate { src, dst, .. }
            | TapeInstr::Repl64 { src, dst, .. } => {
                fix(src);
                *dst = f(*dst);
            }
            TapeInstr::Binary { lhs, rhs, dst, .. } | TapeInstr::Bin64 { lhs, rhs, dst, .. } => {
                fix(lhs);
                fix(rhs);
                *dst = f(*dst);
            }
            TapeInstr::Mux {
                cond,
                then_,
                else_,
                dst,
            }
            | TapeInstr::Mux64 {
                cond,
                then_,
                else_,
                dst,
                ..
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
            TapeInstr::Concat64 { parts, dst, .. } => {
                for (p, _) in parts.iter_mut() {
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

    /// Number of temporary slots the tape needs.
    pub fn slot_count(&self) -> usize {
        self.n_slots as usize
    }

    /// Returns a copy with the result forced (zero-extended / truncated)
    /// to `width` — what RTL node outputs need.
    pub fn with_out_width(mut self, width: u32) -> Self {
        self.out_width = Some(width);
        self
    }
}

/// Reusable execution state for tapes: the slot arena plus a small buffer
/// pool for decision evaluation. Hold one per engine (or worker thread);
/// slots keep their storage across runs, so steady-state execution never
/// allocates (≤ 64-bit values; wider slots reuse storage at a stable word
/// count because the lowering's slot allocator never mixes word counts in
/// one slot).
#[derive(Debug, Clone, Default)]
pub struct TapeScratch {
    slots: Vec<LogicVec>,
    pool: Vec<LogicVec>,
}

impl TapeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer out of the pool (contents unspecified).
    #[inline]
    pub fn take(&mut self) -> LogicVec {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool.
    #[inline]
    pub fn put(&mut self, v: LogicVec) {
        self.pool.push(v);
    }
}

/// Word-count class of a width (1 for everything ≤ 64).
#[inline]
fn words_of(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask of the low `width` bits (`width <= 64`).
#[inline]
fn mask64(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Truth value of a ≤ 64-bit value given its plane words: `1` if any
/// defined `1` bit, `X` if any unknown bit, `0` otherwise (the single-word
/// form of [`LogicVec::truth`]).
#[inline]
fn truth64(a: u64, b: u64) -> LogicBit {
    if a & !b != 0 {
        LogicBit::One
    } else if b != 0 {
        LogicBit::X
    } else {
        LogicBit::Zero
    }
}

/// Plane words of a 1-bit value holding `bit`.
#[inline]
fn bit_planes(bit: LogicBit) -> (u64, u64) {
    let (a, b) = bit.planes();
    (a as u64, b as u64)
}

/// Single-word binary operator on plane words; `w` is the result width.
/// Bit-identical to [`crate::eval::eval_binary_assign`] for operands that
/// fit in one word.
fn bin64(op: BinaryOp, la: u64, lb: u64, ra: u64, rb: u64, w: u32) -> (u64, u64) {
    let m = mask64(w);
    match op {
        BinaryOp::And => {
            let def0 = (!la & !lb) | (!ra & !rb);
            let x = (lb | rb) & !def0;
            let one = (la & !lb) & (ra & !rb);
            ((one | x) & m, x & m)
        }
        BinaryOp::Or => {
            let one = (la & !lb) | (ra & !rb);
            let x = (lb | rb) & !one;
            ((one | x) & m, x & m)
        }
        BinaryOp::Xor => {
            let x = lb | rb;
            ((((la ^ ra) & !x) | x) & m, x & m)
        }
        BinaryOp::Xnor => {
            let x = lb | rb;
            (((!(la ^ ra) & !x) | x) & m, x & m)
        }
        BinaryOp::Add => {
            if lb | rb != 0 {
                (m, m)
            } else {
                (la.wrapping_add(ra) & m, 0)
            }
        }
        BinaryOp::Sub => {
            if lb | rb != 0 {
                (m, m)
            } else {
                (la.wrapping_sub(ra) & m, 0)
            }
        }
        BinaryOp::Mul => {
            if lb | rb != 0 {
                (m, m)
            } else {
                (la.wrapping_mul(ra) & m, 0)
            }
        }
        BinaryOp::Div => {
            if lb | rb != 0 || ra == 0 {
                (m, m)
            } else {
                ((la / ra) & m, 0)
            }
        }
        BinaryOp::Rem => {
            if lb | rb != 0 || ra == 0 {
                (m, m)
            } else {
                ((la % ra) & m, 0)
            }
        }
        // Shifts: `w` is the left operand's width. An unknown amount is
        // all-X; a defined amount saturates (zero fill), matching
        // `shl_vec_assign` / `lshr_vec_assign`.
        BinaryOp::Shl => {
            if rb != 0 {
                (m, m)
            } else if ra >= w as u64 {
                (0, 0)
            } else {
                ((la << ra) & m, (lb << ra) & m)
            }
        }
        BinaryOp::Shr => {
            if rb != 0 {
                (m, m)
            } else if ra >= w as u64 {
                (0, 0)
            } else {
                ((la >> ra) & m, (lb >> ra) & m)
            }
        }
        BinaryOp::AShr => ashr64(la, lb, ra, rb, w),
        BinaryOp::Eq => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la == ra) as u64, 0)
            }
        }
        BinaryOp::Ne => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la != ra) as u64, 0)
            }
        }
        BinaryOp::CaseEq => ((la == ra && lb == rb) as u64, 0),
        BinaryOp::CaseNe => ((la != ra || lb != rb) as u64, 0),
        BinaryOp::Lt => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la < ra) as u64, 0)
            }
        }
        BinaryOp::Le => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la <= ra) as u64, 0)
            }
        }
        BinaryOp::Gt => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la > ra) as u64, 0)
            }
        }
        BinaryOp::Ge => {
            if lb | rb != 0 {
                (1, 1)
            } else {
                ((la >= ra) as u64, 0)
            }
        }
        BinaryOp::LogicalAnd => bit_planes(truth64(la, lb).and(truth64(ra, rb))),
        BinaryOp::LogicalOr => bit_planes(truth64(la, lb).or(truth64(ra, rb))),
    }
}

/// Single-word arithmetic right shift: MSB fill (X fill for an unknown
/// MSB), all-X on an unknown amount, saturation on huge amounts —
/// bit-identical to [`LogicVec::ashr_vec_assign`].
fn ashr64(la: u64, lb: u64, ra: u64, rb: u64, w: u32) -> (u64, u64) {
    let m = mask64(w);
    if rb != 0 {
        return (m, m);
    }
    let msb_a = (la >> (w - 1)) & 1;
    let msb_b = (lb >> (w - 1)) & 1;
    let (fa, fb) = if msb_b == 1 { (1, 1) } else { (msb_a, 0) };
    let sh = ra.min(w as u64) as u32;
    if sh == 0 {
        return (la, lb);
    }
    // sh >= 1, so w - sh <= 63 and the shifts below are in range.
    let (keep_a, keep_b) = if sh >= w {
        (0, 0)
    } else {
        (la >> sh, lb >> sh)
    };
    let fill = m & !mask64(w - sh);
    (
        (keep_a | if fa == 1 { fill } else { 0 }) & m,
        (keep_b | if fb == 1 { fill } else { 0 }) & m,
    )
}

/// Single-word unary operator; `w` is the operand width. Returns the
/// result planes and the result width.
fn un64(op: UnaryOp, a: u64, b: u64, w: u32) -> (u64, u64, u32) {
    let m = mask64(w);
    match op {
        UnaryOp::Not => (((!a & !b) | b) & m, b & m, w),
        UnaryOp::Neg => {
            if b != 0 {
                (m, m, w)
            } else {
                (a.wrapping_neg() & m, 0, w)
            }
        }
        UnaryOp::LogicalNot => {
            let (pa, pb) = bit_planes(truth64(a, b).not());
            (pa, pb, 1)
        }
        UnaryOp::RedAnd => {
            if (!a & !b) & m != 0 {
                (0, 0, 1)
            } else if b != 0 {
                (1, 1, 1)
            } else {
                (1, 0, 1)
            }
        }
        UnaryOp::RedOr => {
            if a & !b != 0 {
                (1, 0, 1)
            } else if b != 0 {
                (1, 1, 1)
            } else {
                (0, 0, 1)
            }
        }
        UnaryOp::RedXor => {
            if b != 0 {
                (1, 1, 1)
            } else {
                ((a.count_ones() as u64) & 1, 0, 1)
            }
        }
    }
}

/// Single-word ternary select/merge; `w` is the result width.
/// Bit-identical to the tree walker's `Ternary` case.
fn mux64(ca: u64, cb: u64, ta: u64, tb: u64, ea: u64, eb: u64, w: u32) -> (u64, u64) {
    let m = mask64(w);
    match truth64(ca, cb) {
        LogicBit::One => (ta & m, tb & m),
        LogicBit::Zero => (ea & m, eb & m),
        _ => {
            // Per-bit merge: agreeing defined bits survive, all else is X
            // (the single-word form of `merge_x_assign`).
            let agree = !(ta ^ ea) & !(tb ^ eb);
            let keep = agree & !tb;
            (((ta & keep) | !keep) & m, !keep & m)
        }
    }
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
        // Small pools; linear dedup keeps repeated literals (case labels,
        // zero constants) from bloating the tape.
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
                let ow = match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    _ => 1,
                };
                let dst = self.alloc(ow);
                if w <= 64 {
                    self.instrs.push(TapeInstr::Un64 {
                        op: *op,
                        src,
                        dst,
                        width: w,
                    });
                } else {
                    self.instrs.push(TapeInstr::Unary { op: *op, src, dst });
                }
                self.release(src, w);
                (Src::Slot(dst), ow)
            }
            Expr::Binary(op, l, r) => {
                let (lhs, lw) = self.lower(l);
                let (rhs, rw) = self.lower(r);
                let ow = if op.is_single_bit() {
                    1
                } else {
                    match op {
                        BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => lw,
                        _ => lw.max(rw),
                    }
                };
                let dst = self.alloc(ow);
                if lw <= 64 && rw <= 64 {
                    self.instrs.push(TapeInstr::Bin64 {
                        op: *op,
                        lhs,
                        rhs,
                        dst,
                        width: ow,
                    });
                } else {
                    self.instrs.push(TapeInstr::Binary {
                        op: *op,
                        lhs,
                        rhs,
                        dst,
                    });
                }
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
                if cw <= 64 && tw <= 64 && ew <= 64 {
                    self.instrs.push(TapeInstr::Mux64 {
                        cond: c,
                        then_: t,
                        else_: el,
                        dst,
                        width: ow,
                    });
                } else {
                    self.instrs.push(TapeInstr::Mux {
                        cond: c,
                        then_: t,
                        else_: el,
                        dst,
                    });
                }
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
                if total <= 64 {
                    let mut lo = 0;
                    let mut placed: Vec<(Src, u32)> = Vec::with_capacity(lowered.len());
                    for &(src, w) in lowered.iter().rev() {
                        placed.push((src, lo));
                        lo += w;
                    }
                    self.instrs.push(TapeInstr::Concat64 {
                        parts: placed.into_boxed_slice(),
                        dst,
                        width: total,
                    });
                } else {
                    let lsb_first: Vec<Src> = lowered.iter().rev().map(|&(src, _)| src).collect();
                    self.instrs.push(TapeInstr::Concat {
                        parts: lsb_first.into_boxed_slice(),
                        dst,
                    });
                }
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
                if total <= 64 {
                    self.instrs.push(TapeInstr::Repl64 {
                        src,
                        n: *n,
                        stride: w,
                        dst,
                        width: total,
                    });
                } else {
                    self.instrs.push(TapeInstr::Replicate { src, n: *n, dst });
                }
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
                // Single-word instructions read their operand planes by
                // value, so the destination slot is written directly — no
                // take/put round trip through the arena.
                match word_fast(ins, &scratch.slots, consts, src) {
                    Some((w, a, b)) => scratch.slots[ins.dst() as usize].assign_word(w, a, b),
                    None => {
                        let dst = ins.dst() as usize;
                        let mut d = std::mem::take(&mut scratch.slots[dst]);
                        exec_instr(ins, &scratch.slots, consts, src, &mut d);
                        scratch.slots[dst] = d;
                    }
                }
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

/// The single-word fast-path result of `ins` as `(width, aval, bval)`,
/// or `None` for general (multi-word) instructions. The one shared
/// implementation behind both the interior-instruction loop (which stores
/// into a slot) and the final-instruction path (which stores into the
/// caller's buffer), so the two can never drift apart.
#[inline]
fn word_fast<S: ValueSource + ?Sized>(
    ins: &TapeInstr,
    slots: &[LogicVec],
    consts: &[LogicVec],
    src: &S,
) -> Option<(u32, u64, u64)> {
    match ins {
        TapeInstr::Bin64 {
            op,
            lhs,
            rhs,
            width,
            ..
        } => {
            let (la, lb) = res(*lhs, slots, consts, src).word_planes();
            let (ra, rb) = res(*rhs, slots, consts, src).word_planes();
            let (a, b) = bin64(*op, la, lb, ra, rb, *width);
            Some((*width, a, b))
        }
        TapeInstr::Un64 {
            op, src: s, width, ..
        } => {
            let (a, b) = res(*s, slots, consts, src).word_planes();
            let (ra, rb, rw) = un64(*op, a, b, *width);
            Some((rw, ra, rb))
        }
        TapeInstr::Mux64 {
            cond,
            then_,
            else_,
            width,
            ..
        } => {
            let (ca, cb) = res(*cond, slots, consts, src).word_planes();
            let (ta, tb) = res(*then_, slots, consts, src).word_planes();
            let (ea, eb) = res(*else_, slots, consts, src).word_planes();
            let (a, b) = mux64(ca, cb, ta, tb, ea, eb, *width);
            Some((*width, a, b))
        }
        TapeInstr::Concat64 { parts, width, .. } => {
            let (mut a, mut b) = (0u64, 0u64);
            for &(p, lo) in parts.iter() {
                let (pa, pb) = res(p, slots, consts, src).word_planes();
                a |= pa << lo;
                b |= pb << lo;
            }
            Some((*width, a, b))
        }
        TapeInstr::Repl64 {
            src: s,
            n,
            stride,
            width,
            ..
        } => {
            let (pa, pb) = res(*s, slots, consts, src).word_planes();
            let (mut a, mut b) = (0u64, 0u64);
            for k in 0..*n {
                a |= pa << (k * stride);
                b |= pb << (k * stride);
            }
            Some((*width, a, b))
        }
        TapeInstr::Index { sig, idx, .. } => {
            let bit = match res(*idx, slots, consts, src).to_u64() {
                Some(i) if i <= u32::MAX as u64 => src.value(*sig).bit_or_x(i as u32),
                _ => LogicBit::X,
            };
            let (a, b) = bit_planes(bit);
            Some((1, a, b))
        }
        _ => None,
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
    if let Some((w, a, b)) = word_fast(ins, slots, consts, src) {
        d.assign_word(w, a, b);
        return;
    }
    match ins {
        TapeInstr::Unary { op, src: s, .. } => {
            let v = res(*s, slots, consts, src);
            match op {
                UnaryOp::Not => {
                    d.assign_from(v);
                    d.not_assign();
                }
                UnaryOp::Neg => {
                    d.assign_from(v);
                    d.neg_assign();
                }
                UnaryOp::LogicalNot => d.assign_bit(v.truth().not()),
                UnaryOp::RedAnd => d.assign_bit(v.red_and()),
                UnaryOp::RedOr => d.assign_bit(v.red_or()),
                UnaryOp::RedXor => d.assign_bit(v.red_xor()),
            }
        }
        TapeInstr::Binary { op, lhs, rhs, .. } => {
            let l = res(*lhs, slots, consts, src);
            let r = res(*rhs, slots, consts, src);
            exec_binary(*op, l, r, d);
        }
        TapeInstr::Mux {
            cond, then_, else_, ..
        } => {
            let c = res(*cond, slots, consts, src);
            let t = res(*then_, slots, consts, src);
            let e = res(*else_, slots, consts, src);
            match c.truth() {
                LogicBit::One => {
                    let w = t.width().max(e.width());
                    d.assign_from(t);
                    d.resize_assign(w);
                }
                LogicBit::Zero => {
                    let w = t.width().max(e.width());
                    d.assign_from(e);
                    d.resize_assign(w);
                }
                _ => {
                    d.assign_from(t);
                    d.merge_x_assign(e);
                }
            }
        }
        TapeInstr::Concat { parts, .. } => {
            let total: u32 = parts
                .iter()
                .map(|&p| res(p, slots, consts, src).width())
                .sum();
            d.make_zeros(total);
            let mut lo = 0;
            for &p in parts.iter() {
                let v = res(p, slots, consts, src);
                d.assign_slice(lo, v);
                lo += v.width();
            }
        }
        TapeInstr::Replicate { src: s, n, .. } => {
            let v = res(*s, slots, consts, src);
            d.make_zeros(v.width() * n);
            for k in 0..*n {
                d.assign_slice(k * v.width(), v);
            }
        }
        TapeInstr::Slice { sig, hi, lo, .. } => src.value(*sig).slice_into(*hi, *lo, d),
        TapeInstr::IndexedPart {
            sig, start, width, ..
        } => {
            let sv = res(*start, slots, consts, src);
            match sv.to_u64() {
                Some(st) if st + *width as u64 <= u32::MAX as u64 => {
                    src.value(*sig)
                        .slice_into(st as u32 + width - 1, st as u32, d)
                }
                _ => d.make_x(*width),
            }
        }
        // Handled by the word_fast path above.
        TapeInstr::Bin64 { .. }
        | TapeInstr::Un64 { .. }
        | TapeInstr::Mux64 { .. }
        | TapeInstr::Concat64 { .. }
        | TapeInstr::Repl64 { .. }
        | TapeInstr::Index { .. } => unreachable!("single-word instruction fell through word_fast"),
    }
}

/// General binary execution in three-address form, mirroring
/// [`eval_binary_assign`](crate::eval::eval_binary_assign) without needing
/// a scratch temporary (the destination never aliases an operand).
fn exec_binary(op: BinaryOp, l: &LogicVec, r: &LogicVec, d: &mut LogicVec) {
    match op {
        BinaryOp::And => {
            d.assign_from(l);
            d.and_assign(r);
        }
        BinaryOp::Or => {
            d.assign_from(l);
            d.or_assign(r);
        }
        BinaryOp::Xor => {
            d.assign_from(l);
            d.xor_assign(r);
        }
        BinaryOp::Xnor => {
            d.assign_from(l);
            d.xnor_assign(r);
        }
        BinaryOp::Add => {
            d.assign_from(l);
            d.add_assign(r);
        }
        BinaryOp::Sub => {
            d.assign_from(l);
            d.sub_assign(r);
        }
        BinaryOp::Mul => l.mul_into(r, d),
        BinaryOp::Div => l.div_into(r, d),
        BinaryOp::Rem => l.rem_into(r, d),
        BinaryOp::Shl => {
            d.assign_from(l);
            d.shl_vec_assign(r);
        }
        BinaryOp::Shr => {
            d.assign_from(l);
            d.lshr_vec_assign(r);
        }
        BinaryOp::AShr => {
            d.assign_from(l);
            d.ashr_vec_assign(r);
        }
        BinaryOp::Eq => d.assign_bit(l.logic_eq(r)),
        BinaryOp::Ne => d.assign_bit(l.logic_ne(r)),
        BinaryOp::CaseEq => d.assign_bit(LogicBit::from(l.case_eq(r))),
        BinaryOp::CaseNe => d.assign_bit(LogicBit::from(!l.case_eq(r))),
        BinaryOp::Lt => d.assign_bit(l.lt(r)),
        BinaryOp::Le => d.assign_bit(l.le(r)),
        BinaryOp::Gt => d.assign_bit(l.gt(r)),
        BinaryOp::Ge => d.assign_bit(l.ge(r)),
        BinaryOp::LogicalAnd => d.assign_bit(l.truth().and(r.truth())),
        BinaryOp::LogicalOr => d.assign_bit(l.truth().or(r.truth())),
    }
}

// ---- design-level programs ----

/// The compiled tapes of one assignment: the right-hand side plus the
/// lvalue's dynamic index expression (bit select / indexed part select),
/// when present.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTapes {
    /// Right-hand-side tape (natural expression width; the interpreter
    /// sizes the value to the written range, as the tree path does).
    pub rhs: EvalTape,
    /// Dynamic lvalue index tape (`sig[index] = ...` / `sig[start +: w]`).
    pub lv_index: Option<EvalTape>,
}

/// The compiled `Evaluate` function of one path decision — the tape twin
/// of [`DecisionEval`], producing identical outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionTape {
    /// `if`/`for`: outcome 1 when the condition's truth value is `1`.
    Truth(EvalTape),
    /// `case`/`casez`: outcome is the first matching arm's index, or
    /// `arm_labels.len()` when none matches.
    Case {
        /// Scrutinee tape.
        scrutinee: EvalTape,
        /// Label tapes of each arm, in order.
        arm_labels: Vec<Vec<EvalTape>>,
        /// Matching semantics.
        kind: CaseKind,
    },
}

impl DecisionTape {
    /// Computes the branch outcome under `src` — bit-identical to
    /// [`DecisionEval::evaluate_with`] on the decision this was compiled
    /// from.
    pub fn evaluate_with<S: ValueSource + ?Sized>(
        &self,
        src: &S,
        scratch: &mut TapeScratch,
    ) -> u32 {
        match self {
            DecisionTape::Truth(cond) => {
                let mut v = scratch.take();
                run_tape(cond, src, scratch, &mut v);
                let outcome = (v.truth() == LogicBit::One) as u32;
                scratch.put(v);
                outcome
            }
            DecisionTape::Case {
                scrutinee,
                arm_labels,
                kind,
            } => {
                let mut scrut = scratch.take();
                run_tape(scrutinee, src, scratch, &mut scrut);
                let mut lv = scratch.take();
                let mut outcome = arm_labels.len() as u32;
                'arms: for (i, labels) in arm_labels.iter().enumerate() {
                    for label in labels {
                        run_tape(label, src, scratch, &mut lv);
                        let hit = match kind {
                            CaseKind::Exact => scrut.case_eq(&lv),
                            CaseKind::Z => scrut.casez_match(&lv),
                        };
                        if hit {
                            outcome = i as u32;
                            break 'arms;
                        }
                    }
                }
                scratch.put(lv);
                scratch.put(scrut);
                outcome
            }
        }
    }
}

/// The compiled tapes of one behavioral node, indexed by the ids embedded
/// in its statement tree.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralTapes {
    /// Per-[`SegmentId`](crate::ids::SegmentId) assignment tapes.
    pub segments: Vec<SegmentTapes>,
    /// Per-[`DecisionId`](crate::ids::DecisionId) decision tapes.
    pub decisions: Vec<DecisionTape>,
}

/// Every tape of a design: one per RTL node (result forced to the output
/// signal's width) and one [`BehavioralTapes`] per behavioral node.
/// Compiled once per design and shared (by reference) across engines and
/// fault-parallel shard workers.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeProgram {
    rtl: Vec<EvalTape>,
    behavioral: Vec<BehavioralTapes>,
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

    /// Lowers every RTL node and behavioral body of `design`, then
    /// renumbers slots so the whole program shares one arena layout.
    pub fn compile(design: &Design) -> TapeProgram {
        let sig_width = |s: SignalId| design.signal(s).width;
        let mut program = TapeProgram {
            rtl: design
                .rtl_nodes()
                .iter()
                .map(|n| compile_rtl_node(n, &sig_width))
                .collect(),
            behavioral: design
                .behavioral_nodes()
                .iter()
                .map(|b| compile_behavioral(b, &sig_width))
                .collect(),
        };
        program.harmonize_slots();
        program
    }

    /// Renumbers every tape's slots into word-count-class-segregated
    /// regions of one shared arena layout: slot index `i` means the same
    /// storage shape in *every* tape of the program, so a [`TapeScratch`]
    /// driven through many tapes (the settle loop visits every RTL node
    /// and behavioral body) never reshapes a slot's storage back and
    /// forth between word counts — the wide-design analogue of the
    /// inline-value zero-allocation guarantee.
    fn harmonize_slots(&mut self) {
        // Widest per-class demand across all tapes.
        let mut max_per_class: Vec<u16> = Vec::new();
        let mut count: Vec<u16> = Vec::new();
        self.for_each_tape(&mut |t: &mut EvalTape| {
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
        });
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
        self.for_each_tape(&mut |t: &mut EvalTape| {
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
        });
    }

    /// Visits every tape of the program, including decision scrutinees,
    /// arm labels and dynamic lvalue indices.
    fn for_each_tape(&mut self, f: &mut dyn FnMut(&mut EvalTape)) {
        for t in &mut self.rtl {
            f(t);
        }
        for b in &mut self.behavioral {
            for st in &mut b.segments {
                f(&mut st.rhs);
                if let Some(t) = &mut st.lv_index {
                    f(t);
                }
            }
            for d in &mut b.decisions {
                match d {
                    DecisionTape::Truth(t) => f(t),
                    DecisionTape::Case {
                        scrutinee,
                        arm_labels,
                        ..
                    } => {
                        f(scrutinee);
                        for ls in arm_labels {
                            for l in ls {
                                f(l);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The tape of RTL node `index`.
    #[inline]
    pub fn rtl(&self, index: usize) -> &EvalTape {
        &self.rtl[index]
    }

    /// The tapes of behavioral node `index`.
    #[inline]
    pub fn behavioral(&self, index: usize) -> &BehavioralTapes {
        &self.behavioral[index]
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

/// Lowers one behavioral node: every assignment's RHS and dynamic lvalue
/// index (by segment id) and every decision's `Evaluate` function (by
/// decision id).
fn compile_behavioral(
    node: &BehavioralNode,
    sig_width: &dyn Fn(SignalId) -> u32,
) -> BehavioralTapes {
    let decisions = node
        .vdg
        .decisions
        .iter()
        .map(|d| match &d.eval {
            DecisionEval::Truth(e) => DecisionTape::Truth(compile_expr(e, sig_width)),
            DecisionEval::Case {
                scrutinee,
                arm_labels,
                kind,
            } => DecisionTape::Case {
                scrutinee: compile_expr(scrutinee, sig_width),
                arm_labels: arm_labels
                    .iter()
                    .map(|ls| ls.iter().map(|l| compile_expr(l, sig_width)).collect())
                    .collect(),
                kind: *kind,
            },
        })
        .collect();
    let mut segments: Vec<Option<SegmentTapes>> =
        (0..node.vdg.segments.len()).map(|_| None).collect();
    collect_segments(&node.body, &mut segments, sig_width);
    BehavioralTapes {
        segments: segments
            .into_iter()
            .map(|s| s.expect("every segment id appears exactly once in the body"))
            .collect(),
        decisions,
    }
}

fn collect_segments(
    stmt: &Stmt,
    out: &mut [Option<SegmentTapes>],
    sig_width: &dyn Fn(SignalId) -> u32,
) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                collect_segments(s, out, sig_width);
            }
        }
        Stmt::Assign {
            lhs, rhs, segment, ..
        } => {
            let lv_index = match lhs {
                LValue::BitSelect { index, .. } => Some(compile_expr(index, sig_width)),
                LValue::IndexedPart { start, .. } => Some(compile_expr(start, sig_width)),
                LValue::Full(_) | LValue::PartSelect { .. } => None,
            };
            out[segment.index()] = Some(SegmentTapes {
                rhs: compile_expr(rhs, sig_width),
                lv_index,
            });
        }
        Stmt::If { then_s, else_s, .. } => {
            collect_segments(then_s, out, sig_width);
            if let Some(e) = else_s {
                collect_segments(e, out, sig_width);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_segments(&arm.body, out, sig_width);
            }
            if let Some(d) = default {
                collect_segments(d, out, sig_width);
            }
        }
        Stmt::For {
            init, step, body, ..
        } => {
            collect_segments(init, out, sig_width);
            collect_segments(body, out, sig_width);
            collect_segments(step, out, sig_width);
        }
        Stmt::Nop => {}
    }
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
        assert!(tape.slot_count() <= 3, "slots: {}", tape.slot_count());
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
