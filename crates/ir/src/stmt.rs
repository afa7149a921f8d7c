//! Behavioral statements.
//!
//! Bodies of `always` blocks are statement trees. During
//! [`DesignBuilder::finish`](crate::DesignBuilder::finish) every branching
//! statement is assigned a [`DecisionId`] and every assignment a
//! [`SegmentId`]; these ids tie the statement tree to the behavioral node's
//! [visibility dependency graph](crate::vdg::Vdg), which is what the
//! implicit-redundancy check of the ERASER algorithm walks.

use crate::expr::Expr;
use crate::ids::{DecisionId, SegmentId, SignalId};

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// The whole signal.
    Full(SignalId),
    /// A single dynamically-indexed bit: `sig[index] = ...`.
    BitSelect {
        /// Target signal.
        base: SignalId,
        /// Bit index expression (evaluated at execution time).
        index: Expr,
    },
    /// A constant part select: `sig[hi:lo] = ...`.
    PartSelect {
        /// Target signal.
        base: SignalId,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// An indexed part select: `sig[start +: width] = ...`.
    IndexedPart {
        /// Target signal.
        base: SignalId,
        /// Start (low) bit index expression.
        start: Expr,
        /// Width of the written range.
        width: u32,
    },
}

impl LValue {
    /// The signal this lvalue (partially) writes.
    pub fn target(&self) -> SignalId {
        match self {
            LValue::Full(s) => *s,
            LValue::BitSelect { base, .. } => *base,
            LValue::PartSelect { base, .. } => *base,
            LValue::IndexedPart { base, .. } => *base,
        }
    }

    /// True if the lvalue writes only part of the target, so the result
    /// also depends on the target's previous value.
    pub fn is_partial(&self) -> bool {
        !matches!(self, LValue::Full(_))
    }

    /// Signals *read* in order to perform this write (index expressions,
    /// plus the target itself for partial writes).
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            LValue::Full(_) => {}
            LValue::BitSelect { base, index } => {
                out.push(*base);
                index.collect_reads(out);
            }
            LValue::PartSelect { base, .. } => out.push(*base),
            LValue::IndexedPart { base, start, .. } => {
                out.push(*base);
                start.collect_reads(out);
            }
        }
    }
}

/// The matching semantics of a `case` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// `case` — four-state identity match (`===` per item).
    Exact,
    /// `casez` — `z`/`?` bits in the labels or the scrutinee are wildcards.
    Z,
}

/// One arm of a `case` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Labels; the arm is taken if any label matches.
    pub labels: Vec<Expr>,
    /// The arm body.
    pub body: Stmt,
}

/// A behavioral statement.
///
/// `decision` / `segment` fields are assigned by
/// [`DesignBuilder::finish`](crate::DesignBuilder::finish) (zero before
/// finalization) and link each statement to its VDG node.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin ... end`.
    Block(Vec<Stmt>),
    /// A blocking (`=`) or non-blocking (`<=`) assignment.
    Assign {
        /// Target of the assignment.
        lhs: LValue,
        /// Value expression.
        rhs: Expr,
        /// True for `=`, false for `<=`.
        blocking: bool,
        /// VDG dependency-segment id (assigned at design finalization).
        segment: SegmentId,
    },
    /// `if (cond) then_s [else else_s]`. A condition evaluating to `X`/`Z`
    /// takes the `else` branch, per IEEE 1364.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when the condition is true.
        then_s: Box<Stmt>,
        /// Taken otherwise (may be absent).
        else_s: Option<Box<Stmt>>,
        /// VDG decision id (assigned at design finalization).
        decision: DecisionId,
    },
    /// `case`/`casez` statement. Arms are tested in order; `default` runs if
    /// no arm matches.
    Case {
        /// Scrutinee expression.
        scrutinee: Expr,
        /// Arms in source order.
        arms: Vec<CaseArm>,
        /// Optional default body.
        default: Option<Box<Stmt>>,
        /// Matching semantics.
        kind: CaseKind,
        /// VDG decision id (assigned at design finalization).
        decision: DecisionId,
    },
    /// `for (init; cond; step) body` with run-time bounds. The condition is
    /// a VDG decision evaluated once per iteration.
    For {
        /// Loop initialization assignment.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Loop step assignment.
        step: Box<Stmt>,
        /// Loop body.
        body: Box<Stmt>,
        /// VDG decision id for the condition (assigned at finalization).
        decision: DecisionId,
    },
    /// No operation (empty statement).
    Nop,
}

impl Stmt {
    /// Convenience constructor for a full-signal assignment.
    pub fn assign(sig: SignalId, rhs: Expr, blocking: bool) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Full(sig),
            rhs,
            blocking,
            segment: SegmentId(0),
        }
    }

    /// Convenience constructor for `if` without `else`.
    pub fn if_then(cond: Expr, then_s: Stmt) -> Stmt {
        Stmt::If {
            cond,
            then_s: Box::new(then_s),
            else_s: None,
            decision: DecisionId(0),
        }
    }

    /// Convenience constructor for `if`/`else`.
    pub fn if_else(cond: Expr, then_s: Stmt, else_s: Stmt) -> Stmt {
        Stmt::If {
            cond,
            then_s: Box::new(then_s),
            else_s: Some(Box::new(else_s)),
            decision: DecisionId(0),
        }
    }

    /// Appends all signals read anywhere in this statement tree
    /// (conditions, right-hand sides, indices, partial-write targets).
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.collect_reads(out);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                rhs.collect_reads(out);
                lhs.collect_reads(out);
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                cond.collect_reads(out);
                then_s.collect_reads(out);
                if let Some(e) = else_s {
                    e.collect_reads(out);
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                scrutinee.collect_reads(out);
                for arm in arms {
                    for l in &arm.labels {
                        l.collect_reads(out);
                    }
                    arm.body.collect_reads(out);
                }
                if let Some(d) = default {
                    d.collect_reads(out);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                init.collect_reads(out);
                cond.collect_reads(out);
                step.collect_reads(out);
                body.collect_reads(out);
            }
            Stmt::Nop => {}
        }
    }

    /// Appends all signals this statement tree may write.
    pub fn collect_writes(&self, out: &mut Vec<SignalId>) {
        match self {
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.collect_writes(out);
                }
            }
            Stmt::Assign { lhs, .. } => out.push(lhs.target()),
            Stmt::If { then_s, else_s, .. } => {
                then_s.collect_writes(out);
                if let Some(e) = else_s {
                    e.collect_writes(out);
                }
            }
            Stmt::Case { arms, default, .. } => {
                for arm in arms {
                    arm.body.collect_writes(out);
                }
                if let Some(d) = default {
                    d.collect_writes(out);
                }
            }
            Stmt::For {
                init, step, body, ..
            } => {
                init.collect_writes(out);
                step.collect_writes(out);
                body.collect_writes(out);
            }
            Stmt::Nop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;

    fn s(i: u32) -> SignalId {
        SignalId(i)
    }

    #[test]
    fn reads_and_writes_of_if() {
        let st = Stmt::if_else(
            Expr::sig(s(0)),
            Stmt::assign(s(1), Expr::sig(s(2)), false),
            Stmt::assign(s(1), Expr::val(4, 0), false),
        );
        let mut reads = Vec::new();
        st.collect_reads(&mut reads);
        reads.sort_unstable();
        reads.dedup();
        assert_eq!(reads, vec![s(0), s(2)]);
        let mut writes = Vec::new();
        st.collect_writes(&mut writes);
        writes.dedup();
        assert_eq!(writes, vec![s(1)]);
    }

    #[test]
    fn partial_write_reads_target() {
        let st = Stmt::Assign {
            lhs: LValue::BitSelect {
                base: s(4),
                index: Expr::sig(s(5)),
            },
            rhs: Expr::val(1, 1),
            blocking: true,
            segment: SegmentId(0),
        };
        let mut reads = Vec::new();
        st.collect_reads(&mut reads);
        reads.sort_unstable();
        assert_eq!(reads, vec![s(4), s(5)]);
        assert!(LValue::BitSelect {
            base: s(4),
            index: Expr::sig(s(5))
        }
        .is_partial());
    }

    #[test]
    fn case_reads_labels_and_scrutinee() {
        let st = Stmt::Case {
            scrutinee: Expr::sig(s(0)),
            arms: vec![CaseArm {
                labels: vec![Expr::val(2, 1), Expr::sig(s(3))],
                body: Stmt::assign(s(1), Expr::sig(s(2)), false),
            }],
            default: Some(Box::new(Stmt::assign(s(1), Expr::val(4, 0), false))),
            kind: CaseKind::Exact,
            decision: DecisionId(0),
        };
        let mut reads = Vec::new();
        st.collect_reads(&mut reads);
        reads.sort_unstable();
        reads.dedup();
        assert_eq!(reads, vec![s(0), s(2), s(3)]);
    }

    #[test]
    fn for_collects_everything() {
        let st = Stmt::For {
            init: Box::new(Stmt::assign(s(0), Expr::val(8, 0), true)),
            cond: Expr::bin(BinaryOp::Lt, Expr::sig(s(0)), Expr::val(8, 4)),
            step: Box::new(Stmt::assign(
                s(0),
                Expr::bin(BinaryOp::Add, Expr::sig(s(0)), Expr::val(8, 1)),
                true,
            )),
            body: Box::new(Stmt::assign(s(1), Expr::sig(s(2)), true)),
            decision: DecisionId(0),
        };
        let mut writes = Vec::new();
        st.collect_writes(&mut writes);
        writes.sort_unstable();
        writes.dedup();
        assert_eq!(writes, vec![s(0), s(1)]);
    }
}
