//! Operator semantics, each written once: four-state on [`LogicVec`], and
//! two-state on machine words.
//!
//! Algorithm 1 compares a faulty execution of a node against the good one
//! and skips it when their paths agree; that is sound only because both
//! compute the same operator semantics. So every evaluator computes an
//! operator by calling the one function here: the tree walker
//! ([`eval_expr_into`](crate::eval::eval_expr_into)), the RTL-node
//! evaluator of `eraser-sim`, the compiled tapes ([`crate::tape`]) and the
//! frontend's constant folder. They differ only in how they walk an
//! expression and where they keep operands. Result widths follow
//! [`unary_width`] and [`binary_width`].
//!
//! **Four-state semantics.** Each function reads borrowed operands and
//! writes an out buffer, reusing its storage. Unary, binary and mux
//! operators also come in an in-place (`_assign`) shape whose accumulator
//! already holds the first operand, so a walker that evaluates that operand
//! straight into its output pays no copy. Single-word speed lives in the
//! inline arms of the `LogicVec` operators.
//!
//! **Two-state word semantics.** The crate-internal `word_*` functions
//! compute the same operators on a `Word`: a fully defined value of at
//! most 64 bits, held in one `u64`. They return `None` exactly where the
//! four-state result would not be a fully defined word of at most 64 bits
//! — `/` or `%` by zero, a result wider than 64 bits, a select that
//! reaches past its base or over an `X`/`Z` bit — so a walker that gets
//! `Some` has the four-state value, and one that gets `None` falls back to
//! the four-state functions. Case matching has its word form here too:
//! `word_case_match` decides a `case` or `casez` label against a defined
//! scrutinee as [`LogicVec::case_eq`] and [`LogicVec::casez_match`] do. The
//! tree walker's word path and the word path of
//! [`DecisionEval::evaluate_with`](crate::vdg::DecisionEval::evaluate_with)
//! are their only callers.
//!
//! The frozen oracle [`eval_expr_cloning`](crate::eval::eval_expr_cloning)
//! is deliberately independent of this module.

use crate::analysis::{binary_width, unary_width};
use crate::eval::EvalScratch;
use crate::expr::{BinaryOp, UnaryOp};
use crate::stmt::CaseKind;
use eraser_logic::{LogicBit, LogicVec};

/// The 1-bit result of a reduction or logical negation; `None` for the
/// width-preserving operators (`~`, unary `-`).
#[inline]
fn reduce(op: UnaryOp, a: &LogicVec) -> Option<LogicBit> {
    match op {
        UnaryOp::Not | UnaryOp::Neg => None,
        UnaryOp::LogicalNot => Some(a.truth().not()),
        UnaryOp::RedAnd => Some(a.red_and()),
        UnaryOp::RedOr => Some(a.red_or()),
        UnaryOp::RedXor => Some(a.red_xor()),
    }
}

/// `out = op a`.
#[inline]
pub fn unary(op: UnaryOp, a: &LogicVec, out: &mut LogicVec) {
    match reduce(op, a) {
        Some(b) => out.assign_bit(b),
        None => {
            out.assign_from(a);
            unary_assign(op, out);
        }
    }
}

/// `acc = op acc`, in place.
#[inline]
pub fn unary_assign(op: UnaryOp, acc: &mut LogicVec) {
    match reduce(op, acc) {
        Some(b) => acc.assign_bit(b),
        None if op == UnaryOp::Not => acc.not_assign(),
        None => acc.neg_assign(),
    }
}

/// The 1-bit result of a comparison or logical operator; `None` for the
/// operators whose result has operand width.
#[inline]
fn compare(op: BinaryOp, l: &LogicVec, r: &LogicVec) -> Option<LogicBit> {
    Some(match op {
        BinaryOp::Eq => l.logic_eq(r),
        BinaryOp::Ne => l.logic_ne(r),
        BinaryOp::CaseEq => LogicBit::from(l.case_eq(r)),
        BinaryOp::CaseNe => LogicBit::from(!l.case_eq(r)),
        BinaryOp::Lt => l.lt(r),
        BinaryOp::Le => l.le(r),
        BinaryOp::Gt => l.gt(r),
        BinaryOp::Ge => l.ge(r),
        BinaryOp::LogicalAnd => l.truth().and(r.truth()),
        BinaryOp::LogicalOr => l.truth().or(r.truth()),
        _ => return None,
    })
}

/// `acc = acc op rhs` for the operators that accumulate into their left
/// operand; false (and `acc` untouched) for the others.
#[inline]
fn accumulate(op: BinaryOp, acc: &mut LogicVec, rhs: &LogicVec) -> bool {
    match op {
        BinaryOp::And => acc.and_assign(rhs),
        BinaryOp::Or => acc.or_assign(rhs),
        BinaryOp::Xor => acc.xor_assign(rhs),
        BinaryOp::Xnor => acc.xnor_assign(rhs),
        BinaryOp::Add => acc.add_assign(rhs),
        BinaryOp::Sub => acc.sub_assign(rhs),
        BinaryOp::Shl => acc.shl_vec_assign(rhs),
        BinaryOp::Shr => acc.lshr_vec_assign(rhs),
        BinaryOp::AShr => acc.ashr_vec_assign(rhs),
        _ => return false,
    }
    true
}

/// `out = l op r` (`out` never aliases an operand).
#[inline]
pub fn binary(op: BinaryOp, l: &LogicVec, r: &LogicVec, out: &mut LogicVec) {
    if let Some(b) = compare(op, l, r) {
        return out.assign_bit(b);
    }
    match op {
        BinaryOp::Mul => l.mul_into(r, out),
        BinaryOp::Div => l.div_into(r, out),
        BinaryOp::Rem => l.rem_into(r, out),
        _ => {
            out.assign_from(l);
            accumulate(op, out, r);
        }
    }
}

/// `acc = acc op rhs`, in place. `scratch` supplies the temporary for the
/// operators that cannot accumulate into their left operand (`*`, `/`,
/// `%`).
#[inline]
pub fn binary_assign(op: BinaryOp, acc: &mut LogicVec, rhs: &LogicVec, scratch: &mut EvalScratch) {
    if let Some(b) = compare(op, acc, rhs) {
        acc.assign_bit(b);
    } else if !accumulate(op, acc, rhs) {
        let mut tmp = scratch.take_for(binary_width(op, acc.width(), rhs.width()));
        binary(op, acc, rhs, &mut tmp);
        std::mem::swap(acc, &mut tmp);
        scratch.put(tmp);
    }
}

/// Orders the branches of `c ? t : e` for [`mux_assign`]: the branch a
/// condition of truth value `truth` selects comes first, the other second.
/// An unknown condition starts from `t`.
#[inline]
pub fn mux_pick<T>(truth: LogicBit, t: T, e: T) -> (T, T) {
    if truth == LogicBit::Zero {
        (e, t)
    } else {
        (t, e)
    }
}

/// Finishes `c ? t : e` in place: `acc` holds the branch [`mux_pick`] put
/// first, `other` the second. A defined condition keeps `acc`, widened to
/// the wider branch; an unknown one merges the branches bit by bit
/// (agreeing defined bits survive, every other bit is `X`).
#[inline]
pub fn mux_assign(truth: LogicBit, acc: &mut LogicVec, other: &LogicVec) {
    match truth {
        LogicBit::One | LogicBit::Zero => mux_defined_assign(acc, other.width()),
        _ => acc.merge_x_assign(other),
    }
}

/// Finishes `c ? t : e` in place for a defined condition: `acc` holds the
/// selected branch and is widened to `other_width`, the width of the other
/// branch, when that is wider. The other branch's value is never read, so
/// a walker need not evaluate it.
#[inline]
pub fn mux_defined_assign(acc: &mut LogicVec, other_width: u32) {
    let w = acc.width().max(other_width);
    acc.resize_assign(w);
}

/// `out = c ? t : e`, where `truth` is the condition's truth value.
#[inline]
pub fn mux(truth: LogicBit, t: &LogicVec, e: &LogicVec, out: &mut LogicVec) {
    let (first, second) = mux_pick(truth, t, e);
    out.assign_from(first);
    mux_assign(truth, out, second);
}

/// `out` = the concatenation of `parts`, given LSB-first (source order
/// reversed).
///
/// # Panics
///
/// Panics if `parts` is empty.
#[inline]
pub fn concat<'a, I>(parts: I, out: &mut LogicVec)
where
    I: IntoIterator<Item = &'a LogicVec>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let total: u32 = parts.clone().map(|p| p.width()).sum();
    assert!(total > 0, "concat needs at least one part");
    out.make_zeros(total);
    let mut lo = 0;
    for p in parts {
        out.assign_slice(lo, p);
        lo += p.width();
    }
}

/// `out = {n{v}}`.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn replicate(n: u32, v: &LogicVec, out: &mut LogicVec) {
    assert!(n > 0, "replication count must be positive");
    out.make_zeros(v.width() * n);
    for k in 0..n {
        out.assign_slice(k * v.width(), v);
    }
}

/// `out = base[idx]`: `X` for an unknown or out-of-range index.
#[inline]
pub fn index(base: &LogicVec, idx: &LogicVec, out: &mut LogicVec) {
    let bit = match idx.to_u64().and_then(|i| u32::try_from(i).ok()) {
        Some(i) => base.bit_or_x(i),
        None => LogicBit::X,
    };
    out.assign_bit(bit);
}

/// `out = base[start +: width]`: all `X` for an unknown start, and for a
/// selection that would reach past bit `u32::MAX` (however large the
/// start); bits past `base`'s width read `X`.
#[inline]
pub fn indexed_part(base: &LogicVec, start: &LogicVec, width: u32, out: &mut LogicVec) {
    match start.to_u64() {
        Some(s)
            if s.checked_add(width as u64)
                .is_some_and(|end| end <= u32::MAX as u64) =>
        {
            base.slice_into(s as u32 + width - 1, s as u32, out)
        }
        _ => out.make_x(width),
    }
}

/// A fully defined value of 1 to 64 bits in one machine word: the operand
/// of the two-state `word_*` operators. Bits at positions `>= width` are
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Word {
    /// The value, zero above `width`.
    pub(crate) bits: u64,
    /// The width in bits, `1..=64`.
    pub(crate) width: u32,
}

impl Word {
    /// `bits` masked to `width` (`1..=64`) bits.
    #[inline]
    fn new(width: u32, bits: u64) -> Self {
        Word {
            bits: bits & word_mask(width),
            width,
        }
    }

    /// A 1-bit word.
    #[inline]
    fn bit(b: bool) -> Self {
        Word {
            bits: b as u64,
            width: 1,
        }
    }
}

/// The mask of the low `width` (`1..=64`) bits.
#[inline]
fn word_mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// `v` as a word; `None` when it is wider than 64 bits or has an `X`/`Z`
/// bit.
#[inline]
pub(crate) fn word_of(v: &LogicVec) -> Option<Word> {
    if v.width() > 64 {
        return None;
    }
    match v.word_planes() {
        (bits, 0) => Some(Word {
            bits,
            width: v.width(),
        }),
        _ => None,
    }
}

/// The truth value of a word, as [`LogicVec::truth`] gives it: always
/// defined.
#[inline]
pub(crate) fn word_truth(c: Word) -> LogicBit {
    LogicBit::from(c.bits != 0)
}

/// `op a` on a word, as [`unary`] computes it.
#[inline]
pub(crate) fn word_unary(op: UnaryOp, a: Word) -> Word {
    let w = unary_width(op, a.width);
    match op {
        UnaryOp::Not => Word::new(w, !a.bits),
        UnaryOp::Neg => Word::new(w, a.bits.wrapping_neg()),
        UnaryOp::LogicalNot => Word::bit(a.bits == 0),
        UnaryOp::RedAnd => Word::bit(a.bits == word_mask(a.width)),
        UnaryOp::RedOr => Word::bit(a.bits != 0),
        UnaryOp::RedXor => Word::bit(a.bits.count_ones() % 2 == 1),
    }
}

/// `l op r` on words, as [`binary`] computes it; `None` for `/` and `%` by
/// zero, whose four-state result is all `X`.
#[inline]
pub(crate) fn word_binary(op: BinaryOp, l: Word, r: Word) -> Option<Word> {
    let w = binary_width(op, l.width, r.width);
    let (a, b) = (l.bits, r.bits);
    // Shifts keep the left operand's width; an amount at or past it shifts
    // every bit out.
    let shifted_out = b >= w as u64;
    let bits = match op {
        BinaryOp::And => a & b,
        BinaryOp::Or => a | b,
        BinaryOp::Xor => a ^ b,
        BinaryOp::Xnor => !(a ^ b),
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        BinaryOp::Mul => a.wrapping_mul(b),
        BinaryOp::Div => a.checked_div(b)?,
        BinaryOp::Rem => a.checked_rem(b)?,
        BinaryOp::Shl if shifted_out => 0,
        BinaryOp::Shl => a << b,
        BinaryOp::Shr if shifted_out => 0,
        BinaryOp::Shr => a >> b,
        BinaryOp::AShr => {
            let fill = if (a >> (w - 1)) & 1 == 1 { u64::MAX } else { 0 };
            if shifted_out {
                fill
            } else {
                (a >> b) | (fill & !(word_mask(w) >> b))
            }
        }
        BinaryOp::Eq | BinaryOp::CaseEq => (a == b) as u64,
        BinaryOp::Ne | BinaryOp::CaseNe => (a != b) as u64,
        BinaryOp::Lt => (a < b) as u64,
        BinaryOp::Le => (a <= b) as u64,
        BinaryOp::Gt => (a > b) as u64,
        BinaryOp::Ge => (a >= b) as u64,
        BinaryOp::LogicalAnd => (a != 0 && b != 0) as u64,
        BinaryOp::LogicalOr => (a != 0 || b != 0) as u64,
    };
    Some(Word::new(w, bits))
}

/// `c ? t : e` for a defined condition, as [`mux_defined_assign`] computes
/// it: `picked` widened to `other_width`; `None` when that is over 64 bits.
#[inline]
pub(crate) fn word_mux(picked: Word, other_width: u32) -> Option<Word> {
    let width = picked.width.max(other_width);
    (width <= 64).then_some(Word {
        bits: picked.bits,
        width,
    })
}

/// `{hi, lo}`, as [`concat()`] computes it; `None` when the result is over
/// 64 bits.
#[inline]
pub(crate) fn word_concat(hi: Word, lo: Word) -> Option<Word> {
    let width = hi.width + lo.width;
    (width <= 64).then(|| Word {
        bits: (hi.bits << lo.width) | lo.bits,
        width,
    })
}

/// `{n{v}}`, as [`replicate`] computes it; `None` when the result is over
/// 64 bits (or `n` is zero, which [`replicate`] rejects).
#[inline]
pub(crate) fn word_replicate(n: u32, v: Word) -> Option<Word> {
    if n == 0 {
        return None;
    }
    (1..n).try_fold(v, |acc, _| word_concat(acc, v))
}

/// The `width` bits of `base` from bit `lo` up, as [`LogicVec::slice_into`],
/// [`index`] and [`indexed_part`] compute them; `None` when `width` is not
/// in `1..=64`, or the range reaches past `base` (those bits read `X`) or
/// holds an `X`/`Z` bit. `base` may be of any width.
#[inline]
pub(crate) fn word_slice(base: &LogicVec, lo: u64, width: u32) -> Option<Word> {
    let end = lo.checked_add(width as u64)?;
    if width == 0 || width > 64 || end > base.width() as u64 {
        return None;
    }
    let (a, b) = if base.width() <= 64 {
        let (a, b) = base.word_planes();
        (a >> lo, b >> lo)
    } else {
        // A range of at most 64 bits spans at most two words.
        let (i, sh) = ((lo / 64) as usize, (lo % 64) as u32);
        let gather = |plane: &[u64]| {
            let high = match plane.get(i + 1) {
                Some(&next) if sh > 0 => next << (64 - sh),
                _ => 0,
            };
            (plane[i] >> sh) | high
        };
        (gather(base.avals()), gather(base.bvals()))
    };
    let m = word_mask(width);
    (b & m == 0).then_some(Word { bits: a & m, width })
}

/// A constant case label's two planes, as [`LogicVec::word_planes`] gives
/// them, `X` and `Z` bits kept; `None` when it is wider than 64 bits.
#[inline]
pub(crate) fn word_label(label: &LogicVec) -> Option<(u64, u64)> {
    (label.width() <= 64).then(|| label.word_planes())
}

/// Whether a case label of at most 64 bits, given by its planes `(a, b)`
/// ([`word_label`], or `(bits, 0)` for a defined word), matches the defined
/// scrutinee `v`, as [`LogicVec::case_eq`] (`case`) and
/// [`LogicVec::casez_match`] (`casez`) decide it at the zero-extended
/// common width. An exact label matches only when it is fully defined and
/// its bits equal `v`'s. A `casez` label's `Z` bits are wildcards; an `X`
/// bit outside them never matches a defined scrutinee.
#[inline]
pub(crate) fn word_case_match(kind: CaseKind, v: Word, (a, b): (u64, u64)) -> bool {
    let wild = match kind {
        CaseKind::Exact => 0,
        CaseKind::Z => !a & b,
    };
    b & !wild == 0 && (v.bits ^ a) & !wild == 0
}
