//! Expression trees.

use crate::ids::SignalId;
use eraser_logic::LogicVec;
use std::fmt;

/// The bits `(lo, hi)` of a read of the whole signal.
pub(crate) const WHOLE: (u32, u32) = (0, u32::MAX);

/// Unary RTL operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise NOT (`~`).
    Not,
    /// Two's-complement negation (`-`).
    Neg,
    /// Logical NOT (`!`), 1-bit result.
    LogicalNot,
    /// Reduction AND (`&`), 1-bit result.
    RedAnd,
    /// Reduction OR (`|`), 1-bit result.
    RedOr,
    /// Reduction XOR (`^`), 1-bit result.
    RedXor,
}

/// Binary RTL operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Bitwise AND (`&`).
    And,
    /// Bitwise OR (`|`).
    Or,
    /// Bitwise XOR (`^`).
    Xor,
    /// Bitwise XNOR (`~^`).
    Xnor,
    /// Addition (`+`).
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Unsigned division (`/`).
    Div,
    /// Unsigned remainder (`%`).
    Rem,
    /// Logical shift left (`<<`).
    Shl,
    /// Logical shift right (`>>`).
    Shr,
    /// Arithmetic shift right (`>>>`).
    AShr,
    /// Four-state equality (`==`), 1-bit result.
    Eq,
    /// Four-state inequality (`!=`), 1-bit result.
    Ne,
    /// Case equality (`===`), 1-bit result.
    CaseEq,
    /// Case inequality (`!==`), 1-bit result.
    CaseNe,
    /// Unsigned less-than (`<`), 1-bit result.
    Lt,
    /// Unsigned less-or-equal (`<=`), 1-bit result.
    Le,
    /// Unsigned greater-than (`>`), 1-bit result.
    Gt,
    /// Unsigned greater-or-equal (`>=`), 1-bit result.
    Ge,
    /// Logical AND (`&&`), 1-bit result.
    LogicalAnd,
    /// Logical OR (`||`), 1-bit result.
    LogicalOr,
}

impl BinaryOp {
    /// True for operators whose result is a single bit.
    pub fn is_single_bit(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::CaseEq
                | BinaryOp::CaseNe
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::LogicalAnd
                | BinaryOp::LogicalOr
        )
    }
}

/// A four-state RTL expression.
///
/// Expressions reference design signals by [`SignalId`]; they appear as
/// right-hand sides of assignments, branch conditions, case labels and index
/// computations. Evaluation is provided by [`crate::eval::eval_expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(LogicVec),
    /// The full value of a signal.
    Signal(SignalId),
    /// A unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// The ternary conditional `cond ? then_e : else_e`.
    Ternary {
        /// Condition (any width, reduced to a truth value).
        cond: Box<Expr>,
        /// Value when true.
        then_e: Box<Expr>,
        /// Value when false.
        else_e: Box<Expr>,
    },
    /// Concatenation `{msb, ..., lsb}` — parts stored MSB-first, exactly as
    /// written in Verilog source.
    Concat(Vec<Expr>),
    /// Replication `{count{value}}`.
    Replicate(u32, Box<Expr>),
    /// Constant part select `signal[hi:lo]`.
    Slice {
        /// Signal being selected from.
        base: SignalId,
        /// High bit index (inclusive).
        hi: u32,
        /// Low bit index (inclusive).
        lo: u32,
    },
    /// Variable bit select `signal[index]`, 1-bit result; out-of-range reads
    /// produce `X`.
    Index {
        /// Signal being selected from.
        base: SignalId,
        /// Bit index expression.
        index: Box<Expr>,
    },
    /// Indexed part select `signal[start +: width]`; out-of-range bits read
    /// as `X`.
    IndexedPart {
        /// Signal being selected from.
        base: SignalId,
        /// Start (low) bit index expression.
        start: Box<Expr>,
        /// Width of the selection.
        width: u32,
    },
}

impl Expr {
    /// Convenience constructor for a signal reference.
    pub fn sig(id: SignalId) -> Expr {
        Expr::Signal(id)
    }

    /// Convenience constructor for an unsigned constant.
    pub fn val(width: u32, value: u64) -> Expr {
        Expr::Const(LogicVec::from_u64(width, value))
    }

    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn un(op: UnaryOp, operand: Expr) -> Expr {
        Expr::Unary(op, Box::new(operand))
    }

    /// Appends every signal this expression reads to `out` (with
    /// duplicates; callers dedup).
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        self.for_each_read(&mut |s, _| out.push(s));
    }

    /// Calls `f` with every signal this expression reads and the bits
    /// `(lo, hi)` it reads of it: a constant part select its range, any
    /// other reference [`WHOLE`].
    pub(crate) fn for_each_read(&self, f: &mut impl FnMut(SignalId, (u32, u32))) {
        match self {
            Expr::Const(_) => {}
            Expr::Signal(s) => f(*s, WHOLE),
            Expr::Unary(_, e) | Expr::Replicate(_, e) => e.for_each_read(f),
            Expr::Binary(_, l, r) => {
                l.for_each_read(f);
                r.for_each_read(f);
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                cond.for_each_read(f);
                then_e.for_each_read(f);
                else_e.for_each_read(f);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    p.for_each_read(f);
                }
            }
            Expr::Slice { base, hi, lo } => f(*base, (*lo, *hi)),
            Expr::Index { base, index: i } | Expr::IndexedPart { base, start: i, .. } => {
                f(*base, WHOLE);
                i.for_each_read(f);
            }
        }
    }

    /// The sorted, deduplicated set of signals this expression reads.
    pub fn reads(&self) -> Vec<SignalId> {
        let mut v = Vec::new();
        self.collect_reads(&mut v);
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Signal(s) => write!(f, "{s}"),
            Expr::Unary(op, e) => write!(f, "({op:?} {e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op:?} {r})"),
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => write!(f, "({cond} ? {then_e} : {else_e})"),
            Expr::Concat(parts) => {
                write!(f, "{{")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
            Expr::Replicate(n, e) => write!(f, "{{{n}{{{e}}}}}"),
            Expr::Slice { base, hi, lo } => write!(f, "{base}[{hi}:{lo}]"),
            Expr::Index { base, index } => write!(f, "{base}[{index}]"),
            Expr::IndexedPart { base, start, width } => {
                write!(f, "{base}[{start} +: {width}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_sorted_and_deduped() {
        let e = Expr::bin(
            BinaryOp::Add,
            Expr::sig(SignalId(3)),
            Expr::bin(
                BinaryOp::And,
                Expr::sig(SignalId(1)),
                Expr::sig(SignalId(3)),
            ),
        );
        assert_eq!(e.reads(), vec![SignalId(1), SignalId(3)]);
    }

    #[test]
    fn index_reads_base_and_index() {
        let e = Expr::Index {
            base: SignalId(5),
            index: Box::new(Expr::sig(SignalId(2))),
        };
        assert_eq!(e.reads(), vec![SignalId(2), SignalId(5)]);
    }

    #[test]
    fn const_reads_nothing() {
        assert!(Expr::val(8, 3).reads().is_empty());
    }

    #[test]
    fn single_bit_classification() {
        assert!(BinaryOp::Eq.is_single_bit());
        assert!(BinaryOp::LogicalAnd.is_single_bit());
        assert!(!BinaryOp::Add.is_single_bit());
        assert!(!BinaryOp::Shl.is_single_bit());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::bin(BinaryOp::Add, Expr::sig(SignalId(0)), Expr::val(4, 1));
        assert_eq!(format!("{e}"), "(s0 Add 4'h1)");
    }
}
