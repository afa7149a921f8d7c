//! Generic four-state expression evaluation.
//!
//! Every engine in the framework evaluates the same [`Expr`] trees against a
//! different notion of "the current value of a signal": the good simulator
//! reads its value store, the ERASER engine reads a fault's *view* (diff
//! entry if visible, good value otherwise). The [`ValueSource`] trait
//! abstracts exactly that lookup, and does so **by borrow** — a signal read
//! never clones.
//!
//! The hot entry point is [`eval_expr_into`], which evaluates an expression
//! into a caller-owned output buffer in two tiers:
//!
//! 1. **The word path** walks the tree once over `Word`s — fully defined
//!    values of at most 64 bits in one `u64` — computing every operator
//!    through the two-state `word_*` functions of [`crate::ops`], and
//!    writes the result with one inline store: no temporary per
//!    subexpression and no list per concat. A ternary
//!    evaluates only the branch its condition selects; the other gives its
//!    width ([`expr_width_with`]).
//! 2. **The four-state walk** runs from the root when the word path gives
//!    up: at the first operand with an `X` or `Z` bit, at the first width
//!    over 64 bits, at a select that reaches past its base, or at `/` or
//!    `%` by zero — everywhere the four-state value is not a defined word.
//!    It draws temporaries from a reusable [`EvalScratch`] arena and
//!    recurses into itself, so an evaluation pays at most one failed word
//!    walk. After a few evaluations the arena holds one buffer per live
//!    recursion slot and steady-state evaluation performs **zero heap
//!    allocations** for designs whose signals fit in 64 bits (wider values
//!    reuse their boxed words whenever the word count matches).
//!
//! Both tiers compute every operator through [`crate::ops`], as every
//! other evaluator does, so they give the same value. Branch decisions
//! ([`DecisionEval::evaluate_with`](crate::vdg::DecisionEval::evaluate_with))
//! use the same two tiers: the condition, or the scrutinee and the labels,
//! on the word path first, and the four-state walk from the start where
//! that cannot decide. [`eval_expr`] is the
//! pure convenience wrapper (fresh scratch and output per call);
//! [`eval_expr_cloning`] is the frozen pre-change evaluator — clone per
//! signal read, fresh `LogicVec` per AST node, its own copy of the operator
//! semantics — kept as the independent oracle for property tests.

use crate::analysis::expr_width_with;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::ids::SignalId;
use crate::ops::{self, Word};
use eraser_logic::{LogicBit, LogicVec};

/// A source of current signal values.
pub trait ValueSource {
    /// The current value of `sig`, borrowed from the source's storage. Must
    /// have the signal's declared width.
    fn value(&self, sig: SignalId) -> &LogicVec;
}

impl ValueSource for [LogicVec] {
    fn value(&self, sig: SignalId) -> &LogicVec {
        &self[sig.index()]
    }
}

impl ValueSource for Vec<LogicVec> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        &self[sig.index()]
    }
}

/// A reusable arena of [`LogicVec`] temporaries for expression evaluation.
///
/// The pool is filled lazily: each recursion slot takes a buffer (or a
/// fresh inline 1-bit vector, which costs no heap allocation) and returns
/// it when done. Sized once per design during warm-up, then reused across
/// all evaluations.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Boxed buffers (widths over 64 bits), kept apart so width-agnostic
    /// takes can never hand a wide buffer to a narrow write — a narrow
    /// assignment would drop the box, and the next wide request would have
    /// to reallocate it. Inline-class buffers are not pooled at all: a
    /// fresh inline vector is heap-free, while pushing returned inline
    /// values here would grow the backing vector at unpredictable times
    /// (e.g. a dead-fault sweep returning a spike of diff entries).
    wide: Vec<LogicVec>,
    /// Pooled buffer lists for n-ary nodes (concatenations), so their
    /// evaluation is iterative — one list per live nesting level.
    lists: Vec<Vec<LogicVec>>,
}

impl EvalScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an inline-class buffer (contents unspecified, no heap
    /// allocation). Width-aware callers use [`EvalScratch::take_for`] to
    /// reach the boxed buffers.
    #[inline]
    pub fn take(&mut self) -> LogicVec {
        LogicVec::default()
    }

    /// Returns a buffer to the arena for reuse. Only boxed storage is
    /// kept; inline-class buffers are dropped (freeing them costs no heap
    /// traffic).
    #[inline]
    pub fn put(&mut self, v: LogicVec) {
        if Self::width_class(v.width()) > 1 {
            self.wide.push(v);
        }
    }

    /// Takes a buffer whose storage class already matches `width` when one
    /// is pooled, falling back to [`EvalScratch::take`] otherwise.
    ///
    /// A `LogicVec` stores values up to 64 bits inline and wider values in
    /// a boxed slab sized by word count; assigning across classes reshapes
    /// the storage. Callers that know the width they are about to write
    /// (e.g. an RTL node's output) use this to keep wide buffers cycling
    /// among wide signals — on designs with >64-bit state (SHA-256) a
    /// width-blind pool would hand a just-recycled narrow buffer to a wide
    /// write and vice versa, reshaping on nearly every evaluation.
    #[inline]
    pub fn take_for(&mut self, width: u32) -> LogicVec {
        let class = Self::width_class(width);
        if class > 1 {
            if let Some(i) = self
                .wide
                .iter()
                .rposition(|v| Self::width_class(v.width()) == class)
            {
                return self.wide.swap_remove(i);
            }
        }
        // No boxed buffer of the right word count (or an inline request):
        // an inline buffer costs nothing to give up, while reshaping a
        // wrong-class boxed buffer would both drop its box and allocate.
        self.take()
    }

    /// Storage class of a width: 1 for every inline-capable width, the
    /// word count for boxed widths.
    #[inline]
    fn width_class(width: u32) -> usize {
        if width <= 64 {
            1
        } else {
            (width as usize).div_ceil(64)
        }
    }

    /// Takes an empty buffer list out of the arena.
    #[inline]
    fn take_list(&mut self) -> Vec<LogicVec> {
        self.lists.pop().unwrap_or_default()
    }

    /// Returns a buffer list, recycling its elements into the pools.
    #[inline]
    fn put_list(&mut self, mut l: Vec<LogicVec>) {
        for v in l.drain(..) {
            self.put(v);
        }
        self.lists.push(l);
    }
}

/// Evaluates `expr` against `src` with full four-state semantics, writing
/// the result into `out` (reshaped as needed) and drawing temporaries from
/// `scratch`.
///
/// The word path runs first; the four-state walk runs only where it gives
/// up (see the module docs). The width model matches
/// [`crate::analysis::expr_width`]; conditions with unknown truth values
/// merge ternary branches bit-wise. Bit-identical to [`eval_expr_cloning`].
#[inline]
pub fn eval_expr_into<S: ValueSource + ?Sized>(
    expr: &Expr,
    src: &S,
    scratch: &mut EvalScratch,
    out: &mut LogicVec,
) {
    match eval_word(expr, src) {
        Some(w) => out.assign_word(w.width, w.bits, 0),
        None => eval_four_state(expr, src, scratch, out),
    }
}

/// The width `expr` evaluates to under `src`.
#[inline]
fn width_under<S: ValueSource + ?Sized>(expr: &Expr, src: &S) -> u32 {
    expr_width_with(expr, &|s| src.value(s).width())
}

/// The word path: `expr` as a [`Word`], or `None` where its four-state
/// value is not a defined word (the `word_*` operators of [`crate::ops`]
/// say where).
pub(crate) fn eval_word<S: ValueSource + ?Sized>(expr: &Expr, src: &S) -> Option<Word> {
    match expr {
        Expr::Const(v) => ops::word_of(v),
        Expr::Signal(s) => ops::word_of(src.value(*s)),
        Expr::Unary(op, e) => Some(ops::word_unary(*op, eval_word(e, src)?)),
        Expr::Binary(op, l, r) => ops::word_binary(*op, eval_word(l, src)?, eval_word(r, src)?),
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            let truth = ops::word_truth(eval_word(cond, src)?);
            let (first, second) = ops::mux_pick(truth, then_e, else_e);
            ops::word_mux(eval_word(first, src)?, width_under(second, src))
        }
        Expr::Concat(parts) => {
            let (first, rest) = parts.split_first()?;
            rest.iter().try_fold(eval_word(first, src)?, |acc, p| {
                ops::word_concat(acc, eval_word(p, src)?)
            })
        }
        Expr::Replicate(n, e) => ops::word_replicate(*n, eval_word(e, src)?),
        Expr::Slice { base, hi, lo } => {
            let width = hi.checked_sub(*lo)?.checked_add(1)?;
            ops::word_slice(src.value(*base), *lo as u64, width)
        }
        Expr::Index { base, index } => {
            ops::word_slice(src.value(*base), eval_word(index, src)?.bits, 1)
        }
        Expr::IndexedPart { base, start, width } => {
            ops::word_slice(src.value(*base), eval_word(start, src)?.bits, *width)
        }
    }
}

/// The four-state walk of [`eval_expr_into`]: every operand a [`LogicVec`],
/// recursing into itself, never back into the word path.
pub(crate) fn eval_four_state<S: ValueSource + ?Sized>(
    expr: &Expr,
    src: &S,
    scratch: &mut EvalScratch,
    out: &mut LogicVec,
) {
    match expr {
        Expr::Const(v) => out.assign_from(v),
        Expr::Signal(s) => out.assign_from(src.value(*s)),
        Expr::Unary(op, e) => {
            eval_four_state(e, src, scratch, out);
            ops::unary_assign(*op, out);
        }
        Expr::Binary(op, l, r) => {
            eval_four_state(l, src, scratch, out);
            let mut rv = scratch.take();
            eval_four_state(r, src, scratch, &mut rv);
            ops::binary_assign(*op, out, &rv, scratch);
            scratch.put(rv);
        }
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            let mut c = scratch.take();
            eval_four_state(cond, src, scratch, &mut c);
            let truth = c.truth();
            scratch.put(c);
            // The picked branch evaluates straight into `out`; a defined
            // condition reads only the other branch's width.
            let (first, second) = ops::mux_pick(truth, then_e, else_e);
            eval_four_state(first, src, scratch, out);
            if truth.is_defined() {
                ops::mux_defined_assign(out, width_under(second, src));
            } else {
                let mut other = scratch.take();
                eval_four_state(second, src, scratch, &mut other);
                ops::mux_assign(truth, out, &other);
                scratch.put(other);
            }
        }
        Expr::Concat(parts) => {
            // Iterative over the parts (stack depth stays proportional to
            // the expression tree depth, not the part count), LSB-first.
            let mut vals = scratch.take_list();
            for p in parts.iter().rev() {
                let mut v = scratch.take();
                eval_four_state(p, src, scratch, &mut v);
                vals.push(v);
            }
            ops::concat(&vals, out);
            scratch.put_list(vals);
        }
        Expr::Replicate(n, e) => {
            let mut v = scratch.take();
            eval_four_state(e, src, scratch, &mut v);
            ops::replicate(*n, &v, out);
            scratch.put(v);
        }
        Expr::Slice { base, hi, lo } => src.value(*base).slice_into(*hi, *lo, out),
        Expr::Index { base, index } => {
            let mut idx = scratch.take();
            eval_four_state(index, src, scratch, &mut idx);
            ops::index(src.value(*base), &idx, out);
            scratch.put(idx);
        }
        Expr::IndexedPart { base, start, width } => {
            let mut st = scratch.take();
            eval_four_state(start, src, scratch, &mut st);
            ops::indexed_part(src.value(*base), &st, *width, out);
            scratch.put(st);
        }
    }
}

/// Evaluates `expr` against `src`, allocating a fresh result.
///
/// Convenience wrapper over [`eval_expr_into`] with a throwaway scratch
/// arena; use the `_into` form on hot paths.
pub fn eval_expr<S: ValueSource + ?Sized>(expr: &Expr, src: &S) -> LogicVec {
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    eval_expr_into(expr, src, &mut scratch, &mut out);
    out
}

/// Evaluates one binary operator on already-computed operands, allocating
/// the result: the oracle's own copy of the operator semantics.
fn eval_binary(op: BinaryOp, lv: &LogicVec, rv: &LogicVec) -> LogicVec {
    match op {
        BinaryOp::And => lv.and(rv),
        BinaryOp::Or => lv.or(rv),
        BinaryOp::Xor => lv.xor(rv),
        BinaryOp::Xnor => lv.xnor(rv),
        BinaryOp::Add => lv.add(rv),
        BinaryOp::Sub => lv.sub(rv),
        BinaryOp::Mul => lv.mul(rv),
        BinaryOp::Div => lv.div(rv),
        BinaryOp::Rem => lv.rem(rv),
        BinaryOp::Shl => lv.shl_vec(rv),
        BinaryOp::Shr => lv.lshr_vec(rv),
        BinaryOp::AShr => lv.ashr_vec(rv),
        BinaryOp::Eq => LogicVec::from_bit(lv.logic_eq(rv)),
        BinaryOp::Ne => LogicVec::from_bit(lv.logic_ne(rv)),
        BinaryOp::CaseEq => LogicVec::from_bit(LogicBit::from(lv.case_eq(rv))),
        BinaryOp::CaseNe => LogicVec::from_bit(LogicBit::from(!lv.case_eq(rv))),
        BinaryOp::Lt => LogicVec::from_bit(lv.lt(rv)),
        BinaryOp::Le => LogicVec::from_bit(lv.le(rv)),
        BinaryOp::Gt => LogicVec::from_bit(lv.gt(rv)),
        BinaryOp::Ge => LogicVec::from_bit(lv.ge(rv)),
        BinaryOp::LogicalAnd => LogicVec::from_bit(lv.truth().and(rv.truth())),
        BinaryOp::LogicalOr => LogicVec::from_bit(lv.truth().or(rv.truth())),
    }
}

/// The frozen pre-change evaluator: one clone per signal read, one fresh
/// [`LogicVec`] per AST node.
///
/// Kept verbatim as the oracle that property tests compare
/// [`eval_expr_into`] and the tape backend against. Not used by any
/// engine.
pub fn eval_expr_cloning<S: ValueSource + ?Sized>(expr: &Expr, src: &S) -> LogicVec {
    match expr {
        Expr::Const(v) => v.clone(),
        Expr::Signal(s) => src.value(*s).clone(),
        Expr::Unary(op, e) => {
            let v = eval_expr_cloning(e, src);
            match op {
                UnaryOp::Not => v.not(),
                UnaryOp::Neg => v.neg(),
                UnaryOp::LogicalNot => LogicVec::from_bit(v.truth().not()),
                UnaryOp::RedAnd => LogicVec::from_bit(v.red_and()),
                UnaryOp::RedOr => LogicVec::from_bit(v.red_or()),
                UnaryOp::RedXor => LogicVec::from_bit(v.red_xor()),
            }
        }
        Expr::Binary(op, l, r) => {
            let lv = eval_expr_cloning(l, src);
            let rv = eval_expr_cloning(r, src);
            eval_binary(*op, &lv, &rv)
        }
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            let c = eval_expr_cloning(cond, src).truth();
            match c {
                LogicBit::One => {
                    let t = eval_expr_cloning(then_e, src);
                    let e = eval_expr_cloning(else_e, src);
                    t.resize(t.width().max(e.width()))
                }
                LogicBit::Zero => {
                    let t = eval_expr_cloning(then_e, src);
                    let e = eval_expr_cloning(else_e, src);
                    e.resize(t.width().max(e.width()))
                }
                _ => eval_expr_cloning(then_e, src).merge_x(&eval_expr_cloning(else_e, src)),
            }
        }
        Expr::Concat(parts) => {
            let vals: Vec<LogicVec> = parts.iter().map(|p| eval_expr_cloning(p, src)).collect();
            // Source order is MSB-first; concat_lsb_first wants the reverse.
            let refs: Vec<&LogicVec> = vals.iter().rev().collect();
            LogicVec::concat_lsb_first(&refs)
        }
        Expr::Replicate(n, e) => eval_expr_cloning(e, src).replicate(*n),
        Expr::Slice { base, hi, lo } => src.value(*base).slice(*hi, *lo),
        Expr::Index { base, index } => {
            let idx = eval_expr_cloning(index, src);
            let b = src.value(*base).clone();
            match idx.to_u64() {
                Some(i) if i <= u32::MAX as u64 => LogicVec::from_bit(b.bit_or_x(i as u32)),
                _ => LogicVec::from_bit(LogicBit::X),
            }
        }
        Expr::IndexedPart { base, start, width } => {
            let st = eval_expr_cloning(start, src);
            let b = src.value(*base).clone();
            match st.to_u64() {
                Some(s)
                    if s.checked_add(*width as u64)
                        .is_some_and(|e| e <= u32::MAX as u64) =>
                {
                    b.slice(s as u32 + width - 1, s as u32)
                }
                _ => LogicVec::new_x(*width),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(vals: Vec<LogicVec>) -> Vec<LogicVec> {
        vals
    }

    #[test]
    fn take_for_prefers_matching_storage_class() {
        let mut s = EvalScratch::new();
        s.put(LogicVec::new_x(8));
        s.put(LogicVec::new_x(256));
        s.put(LogicVec::new_x(320));
        // A four-word request reuses the four-word box, not the five-word
        // one pushed after it.
        assert_eq!(s.take_for(200).width(), 256);
        // Inline-class buffers are never pooled: narrow requests always
        // get a fresh default (heap-free) buffer.
        assert_eq!(s.take_for(1).width(), 1);
        // No boxed buffer of the right word count: falls back to a fresh
        // inline buffer rather than reshaping the five-word box.
        assert_eq!(s.take_for(512).width(), 1);
        // The five-word box is still pooled for a matching request.
        assert_eq!(s.take_for(320).width(), 320);
    }

    #[test]
    fn arith_and_compare() {
        let s = src(vec![LogicVec::from_u64(8, 10), LogicVec::from_u64(8, 3)]);
        let e = Expr::bin(
            BinaryOp::Add,
            Expr::sig(SignalId(0)),
            Expr::sig(SignalId(1)),
        );
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(13));
        let c = Expr::bin(BinaryOp::Lt, Expr::sig(SignalId(1)), Expr::sig(SignalId(0)));
        assert_eq!(eval_expr(&c, &s).to_u64(), Some(1));
    }

    #[test]
    fn ternary_selects_and_merges() {
        let s = src(vec![
            LogicVec::from_u64(1, 1),
            LogicVec::from_u64(4, 0xa),
            LogicVec::from_u64(4, 0x5),
        ]);
        let t = Expr::Ternary {
            cond: Box::new(Expr::sig(SignalId(0))),
            then_e: Box::new(Expr::sig(SignalId(1))),
            else_e: Box::new(Expr::sig(SignalId(2))),
        };
        assert_eq!(eval_expr(&t, &s).to_u64(), Some(0xa));
        let s = src(vec![
            LogicVec::new_x(1),
            LogicVec::from_u64(4, 0b1100),
            LogicVec::from_u64(4, 0b1010),
        ]);
        let v = eval_expr(&t, &s);
        assert_eq!(v.bit(3), LogicBit::One); // agree
        assert_eq!(v.bit(2), LogicBit::X);
        assert_eq!(v.bit(1), LogicBit::X);
        assert_eq!(v.bit(0), LogicBit::Zero); // agree
    }

    #[test]
    fn concat_is_msb_first() {
        let s = src(vec![LogicVec::from_u64(4, 0xa), LogicVec::from_u64(4, 0x5)]);
        let e = Expr::Concat(vec![Expr::sig(SignalId(0)), Expr::sig(SignalId(1))]);
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(0xa5));
    }

    #[test]
    fn dynamic_index() {
        let s = src(vec![
            LogicVec::from_u64(8, 0b0100),
            LogicVec::from_u64(3, 2),
        ]);
        let e = Expr::Index {
            base: SignalId(0),
            index: Box::new(Expr::sig(SignalId(1))),
        };
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(1));
        // Unknown index -> X.
        let s = src(vec![LogicVec::from_u64(8, 0b0100), LogicVec::new_x(3)]);
        assert_eq!(eval_expr(&e, &s).bit(0), LogicBit::X);
    }

    #[test]
    fn indexed_part_select() {
        let s = src(vec![
            LogicVec::from_u64(16, 0xabcd),
            LogicVec::from_u64(4, 4),
        ]);
        let e = Expr::IndexedPart {
            base: SignalId(0),
            start: Box::new(Expr::sig(SignalId(1))),
            width: 4,
        };
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(0xc));
    }

    #[test]
    fn logical_ops_use_truth() {
        let s = src(vec![LogicVec::from_u64(8, 0), LogicVec::from_u64(8, 7)]);
        let e = Expr::bin(
            BinaryOp::LogicalOr,
            Expr::sig(SignalId(0)),
            Expr::sig(SignalId(1)),
        );
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(1));
        let e = Expr::bin(
            BinaryOp::LogicalAnd,
            Expr::sig(SignalId(0)),
            Expr::sig(SignalId(1)),
        );
        assert_eq!(eval_expr(&e, &s).to_u64(), Some(0));
    }

    #[test]
    fn shift_keeps_lhs_width() {
        let s = src(vec![LogicVec::from_u64(8, 0x81), LogicVec::from_u64(4, 1)]);
        let e = Expr::bin(
            BinaryOp::Shl,
            Expr::sig(SignalId(0)),
            Expr::sig(SignalId(1)),
        );
        let v = eval_expr(&e, &s);
        assert_eq!(v.width(), 8);
        assert_eq!(v.to_u64(), Some(0x02));
    }

    #[test]
    fn into_matches_cloning_on_reused_buffers() {
        // The same scratch arena and output buffer across dissimilar
        // expressions — shapes and widths must never leak between calls.
        let s = src(vec![
            LogicVec::from_u64(8, 0xcd),
            LogicVec::from_u64(16, 0xbeef),
            LogicVec::new_x(4),
        ]);
        let exprs = vec![
            Expr::bin(
                BinaryOp::Add,
                Expr::sig(SignalId(0)),
                Expr::sig(SignalId(1)),
            ),
            Expr::Concat(vec![
                Expr::sig(SignalId(1)),
                Expr::sig(SignalId(0)),
                Expr::sig(SignalId(2)),
            ]),
            Expr::Unary(UnaryOp::RedXor, Box::new(Expr::sig(SignalId(1)))),
            Expr::bin(
                BinaryOp::Mul,
                Expr::sig(SignalId(0)),
                Expr::sig(SignalId(1)),
            ),
            Expr::Ternary {
                cond: Box::new(Expr::sig(SignalId(2))),
                then_e: Box::new(Expr::sig(SignalId(0))),
                else_e: Box::new(Expr::sig(SignalId(1))),
            },
        ];
        let mut scratch = EvalScratch::new();
        let mut out = LogicVec::default();
        for e in &exprs {
            eval_expr_into(e, &s, &mut scratch, &mut out);
            assert_eq!(out, eval_expr_cloning(e, &s));
        }
    }
}
