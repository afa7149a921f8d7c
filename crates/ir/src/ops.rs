//! Four-state operator semantics, each written once.
//!
//! Algorithm 1 compares a faulty execution of a node against the good one
//! and skips it when their paths agree; that is sound only because both
//! compute the same operator semantics. So every evaluator computes an
//! operator by calling the one function here: the tree walker
//! ([`eval_expr_into`](crate::eval::eval_expr_into)), the RTL-node
//! evaluator of `eraser-sim`, the compiled tapes ([`crate::tape`]) and the
//! frontend's constant folder. They differ only in how they walk an
//! expression and where they keep operands. Result widths follow
//! [`unary_width`](crate::analysis::unary_width) and
//! [`binary_width`]; single-word speed lives
//! in the inline arms of the `LogicVec` operators.
//!
//! Each function reads borrowed operands and writes an out buffer, reusing
//! its storage. Unary, binary and mux operators also come in an in-place
//! (`_assign`) shape whose accumulator already holds the first operand, so a
//! walker that evaluates that operand straight into its output pays no copy.
//!
//! The frozen oracle [`eval_expr_cloning`](crate::eval::eval_expr_cloning)
//! is deliberately independent of this module.

use crate::analysis::binary_width;
use crate::eval::EvalScratch;
use crate::expr::{BinaryOp, UnaryOp};
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
        LogicBit::One | LogicBit::Zero => {
            let w = acc.width().max(other.width());
            acc.resize_assign(w);
        }
        _ => acc.merge_x_assign(other),
    }
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
