//! Visibility dependency graphs (VDG).
//!
//! The VDG is the data structure at the heart of the ERASER paper's
//! implicit-redundancy detection (Section IV-A, Fig. 5). It extends the
//! control flow graph of a behavioral body with two node classes:
//!
//! * **path decision nodes** — branch statements (`if`, `case`, the
//!   condition of a `for`). Each carries an `Evaluate` input set: the
//!   signals read by the condition (and case labels). At run time the good
//!   execution records the outcome of every decision it passes; the
//!   redundancy check re-evaluates each decision under a fault's values and
//!   compares outcomes (Algorithm 1, lines 5–11).
//! * **path dependency nodes (segments)** — branch-free execution segments.
//!   Each carries the set of signals whose values flow into the segment's
//!   assignments (right-hand sides, index expressions, and the previous
//!   value of partially-written targets). The redundancy check asks whether
//!   any of these signals is *visible* for the fault (lines 12–18).
//!
//! Here every assignment is its own dependency segment — a finer granularity
//! than the paper's basic-block segments but semantically identical (the
//! union of read sets along the executed path is the same), and it lets the
//! interpreter record the path as a flat sequence of ids embedded in the
//! statement tree.

use crate::eval::{eval_four_state, eval_word, EvalScratch};
use crate::expr::{Expr, WHOLE};
use crate::ids::{DecisionId, SegmentId, SignalId};
use crate::ops;
use crate::stmt::{CaseKind, Stmt};
use crate::ValueSource;
use eraser_logic::{LogicBit, LogicVec};

/// What kind of branch a decision node guards (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// An `if` condition; outcomes are 1 (then) / 0 (else).
    If,
    /// A `case`/`casez` scrutinee; outcomes index the matching arm, with
    /// `arms.len()` meaning "default / no match".
    Case,
    /// A `for` condition; outcomes are 1 (iterate) / 0 (exit).
    For,
}

/// The `Evaluate` function of a path decision node (paper, Fig. 5): given a
/// value source, computes which sub-path the behavioral code takes.
///
/// Generic over the compiled form of its expressions: [`DecisionEval`]
/// holds expression trees, [`DecisionTape`](crate::tape::DecisionTape)
/// their tapes. Both compute the four-state outcome by one statement of the
/// branch-outcome rule, generic over how an expression is evaluated.
/// [`DecisionEval`] tries the word path first and takes that rule only
/// where machine words cannot decide (see
/// [`DecisionEval::evaluate_with`]); a tape decision always takes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision<E> {
    /// `if`/`for`: the truth value of the condition. Outcome 1 = true,
    /// 0 = false or unknown (IEEE 1364: an unknown condition takes `else`).
    Truth(E),
    /// `case`/`casez`: the index of the first matching arm, or
    /// `arm_labels.len()` when none matches (the default path).
    Case {
        /// Scrutinee expression.
        scrutinee: E,
        /// Labels of each arm, in order.
        arm_labels: Vec<Vec<E>>,
        /// Matching semantics.
        kind: CaseKind,
    },
}

/// A decision over expression trees. The interpreter evaluates decisions
/// through this payload, and the implicit-redundancy check re-evaluates
/// them under each fault's values — one implementation, so the two can
/// never disagree.
pub type DecisionEval = Decision<Expr>;

impl<E> Decision<E> {
    /// The branch outcome, evaluating each expression with `eval` into `v`
    /// (the condition or scrutinee) or `label` (a case label).
    pub(crate) fn outcome_by(
        &self,
        v: &mut LogicVec,
        label: &mut LogicVec,
        mut eval: impl FnMut(&E, &mut LogicVec),
    ) -> u32 {
        match self {
            Decision::Truth(cond) => {
                eval(cond, v);
                (v.truth() == LogicBit::One) as u32
            }
            Decision::Case {
                scrutinee,
                arm_labels,
                kind,
            } => {
                eval(scrutinee, v);
                for (i, labels) in arm_labels.iter().enumerate() {
                    for l in labels {
                        eval(l, label);
                        let hit = match kind {
                            CaseKind::Exact => v.case_eq(label),
                            CaseKind::Z => v.casez_match(label),
                        };
                        if hit {
                            return i as u32;
                        }
                    }
                }
                arm_labels.len() as u32
            }
        }
    }
}

impl DecisionEval {
    /// Computes the branch outcome under `src`, drawing temporaries from
    /// `scratch` — the allocation-free hot path.
    ///
    /// The word path decides first: the condition, or the scrutinee and
    /// then each label in order, evaluated in machine words (see
    /// [`crate::eval`]), labels matched by the word form of the case rule
    /// in [`crate::ops`]. Where it cannot decide — a condition or scrutinee
    /// that is not a defined word of at most 64 bits, a constant label
    /// wider than 64 bits, or a computed label that is not a defined word —
    /// the whole decision runs again on the four-state walk, from the
    /// start, without a second try at the word path.
    pub fn evaluate_with<S: ValueSource + ?Sized>(
        &self,
        src: &S,
        scratch: &mut EvalScratch,
    ) -> u32 {
        if let Some(outcome) = self.word_outcome(src) {
            return outcome;
        }
        let (mut v, mut label) = (scratch.take(), scratch.take());
        let outcome = self.outcome_by(&mut v, &mut label, |e, out| {
            eval_four_state(e, src, scratch, out)
        });
        scratch.put(label);
        scratch.put(v);
        outcome
    }

    /// The branch outcome on the word path; `None` where it cannot decide
    /// (see [`DecisionEval::evaluate_with`]).
    fn word_outcome<S: ValueSource + ?Sized>(&self, src: &S) -> Option<u32> {
        match self {
            Decision::Truth(cond) => {
                Some((ops::word_truth(eval_word(cond, src)?) == LogicBit::One) as u32)
            }
            Decision::Case {
                scrutinee,
                arm_labels,
                kind,
            } => {
                let v = eval_word(scrutinee, src)?;
                for (i, labels) in arm_labels.iter().enumerate() {
                    for l in labels {
                        let planes = match l {
                            Expr::Const(c) => ops::word_label(c)?,
                            _ => (eval_word(l, src)?.bits, 0),
                        };
                        if ops::word_case_match(*kind, v, planes) {
                            return Some(i as u32);
                        }
                    }
                }
                Some(arm_labels.len() as u32)
            }
        }
    }

    /// Computes the branch outcome under `src` with a throwaway scratch
    /// arena. Use [`DecisionEval::evaluate_with`] on hot paths.
    pub fn evaluate<S: ValueSource + ?Sized>(&self, src: &S) -> u32 {
        self.evaluate_with(src, &mut EvalScratch::new())
    }
}

/// A path decision node of the VDG.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionInfo {
    /// Branch kind.
    pub kind: DecisionKind,
    /// Sorted, deduplicated signals read by the `Evaluate` function (the
    /// condition, plus the scrutinee and all labels for a `case`).
    pub reads: Vec<SignalId>,
    /// For each of `reads`, the bits `(lo, hi)` it reads (see
    /// [`SegmentInfo::spans`]).
    pub spans: Vec<(u32, u32)>,
    /// The `Evaluate` function.
    pub eval: DecisionEval,
}

/// A path dependency node of the VDG (one assignment).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInfo {
    /// Sorted, deduplicated signals whose values determine the assignment's
    /// effect: right-hand side reads, lvalue index reads, and the target
    /// itself for partial writes.
    pub reads: Vec<SignalId>,
    /// For each of `reads`, the bits `(lo, hi)` (inclusive) the assignment
    /// can depend on: the hull of its constant part selects of the signal,
    /// or `(0, u32::MAX)` where it reads the whole signal, indexes it
    /// dynamically or writes it partially.
    pub spans: Vec<(u32, u32)>,
    /// The signal written.
    pub target: SignalId,
    /// True if the write covers only part of the target.
    pub partial: bool,
    /// True for a blocking (`=`) assignment.
    pub blocking: bool,
}

/// A node reference in VDG traversal order (source order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VdgNode {
    /// A path decision node.
    Decision(DecisionId),
    /// A path dependency node.
    Segment(SegmentId),
}

/// The visibility dependency graph of one behavioral body.
///
/// Decision and segment ids are embedded in the body's [`Stmt`] tree by
/// [`Vdg::build`], so the interpreter can record the executed path without
/// any lookup structure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vdg {
    /// Path decision nodes, indexed by [`DecisionId`].
    pub decisions: Vec<DecisionInfo>,
    /// Path dependency nodes, indexed by [`SegmentId`].
    pub segments: Vec<SegmentInfo>,
}

impl Vdg {
    /// Builds the VDG for `body`, assigning fresh [`DecisionId`]s and
    /// [`SegmentId`]s into the statement tree in a deterministic preorder.
    pub fn build(body: &mut Stmt) -> Vdg {
        let mut vdg = Vdg::default();
        vdg.visit(body);
        vdg
    }

    /// Total node count (decisions + segments).
    pub fn node_count(&self) -> usize {
        self.decisions.len() + self.segments.len()
    }

    fn visit(&mut self, stmt: &mut Stmt) {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.visit(s);
                }
            }
            Stmt::Assign {
                lhs,
                rhs,
                blocking,
                segment,
            } => {
                let mut spans = Vec::new();
                rhs.for_each_read(&mut |s, span| spans.push((s, span)));
                let mut lhs_reads = Vec::new();
                lhs.collect_reads(&mut lhs_reads);
                spans.extend(lhs_reads.into_iter().map(|s| (s, WHOLE)));
                let (reads, spans) = merge_spans(spans);
                *segment = SegmentId::from_index(self.segments.len());
                self.segments.push(SegmentInfo {
                    reads,
                    spans,
                    target: lhs.target(),
                    partial: lhs.is_partial(),
                    blocking: *blocking,
                });
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                decision,
            } => {
                *decision = self.push_decision(
                    DecisionKind::If,
                    [&*cond],
                    DecisionEval::Truth(cond.clone()),
                );
                self.visit(then_s);
                if let Some(e) = else_s {
                    self.visit(e);
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                decision,
                kind,
            } => {
                let labels = arms.iter().flat_map(|a| &a.labels);
                let read = std::iter::once(&*scrutinee).chain(labels);
                let eval = DecisionEval::Case {
                    scrutinee: scrutinee.clone(),
                    arm_labels: arms.iter().map(|a| a.labels.clone()).collect(),
                    kind: *kind,
                };
                *decision = self.push_decision(DecisionKind::Case, read, eval);
                for arm in arms {
                    self.visit(&mut arm.body);
                }
                if let Some(d) = default {
                    self.visit(d);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                decision,
            } => {
                self.visit(init);
                *decision = self.push_decision(
                    DecisionKind::For,
                    [&*cond],
                    DecisionEval::Truth(cond.clone()),
                );
                self.visit(body);
                self.visit(step);
            }
            Stmt::Nop => {}
        }
    }

    fn push_decision<'a>(
        &mut self,
        kind: DecisionKind,
        read: impl IntoIterator<Item = &'a Expr>,
        eval: DecisionEval,
    ) -> DecisionId {
        let mut spans = Vec::new();
        for e in read {
            e.for_each_read(&mut |s, span| spans.push((s, span)));
        }
        let (reads, spans) = merge_spans(spans);
        let id = DecisionId::from_index(self.decisions.len());
        self.decisions.push(DecisionInfo {
            kind,
            reads,
            spans,
            eval,
        });
        id
    }
}

/// A node's sorted, deduplicated `reads` and their `spans`: the hull of
/// every span collected for each signal.
fn merge_spans(mut all: Vec<(SignalId, (u32, u32))>) -> (Vec<SignalId>, Vec<(u32, u32)>) {
    all.sort_unstable_by_key(|(s, _)| *s);
    let mut reads: Vec<SignalId> = Vec::with_capacity(all.len());
    let mut spans: Vec<(u32, u32)> = Vec::with_capacity(all.len());
    for (s, (lo, hi)) in all {
        match (reads.last(), spans.last_mut()) {
            (Some(&last), Some(span)) if last == s => *span = (span.0.min(lo), span.1.max(hi)),
            _ => {
                reads.push(s);
                spans.push((lo, hi));
            }
        }
    }
    (reads, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, Expr};
    use crate::ids::SignalId;
    use crate::stmt::LValue;

    fn s(i: u32) -> SignalId {
        SignalId(i)
    }

    /// Mirrors the paper's Fig. 5(a): nested if/else-if with assignments.
    fn fig5_body() -> Stmt {
        // if (s == 0) { r <= c+g; a <= k; }
        // else if (s == 1) r <= 0;
        // else { a <= 0; if (b == 0) r <= r + 1; else r <= a * r; }
        let sid = s(0);
        let (c, g, k, b, r, a) = (s(1), s(2), s(3), s(4), s(5), s(6));
        Stmt::if_else(
            Expr::bin(BinaryOp::Eq, Expr::sig(sid), Expr::val(2, 0)),
            Stmt::Block(vec![
                Stmt::assign(
                    r,
                    Expr::bin(BinaryOp::Add, Expr::sig(c), Expr::sig(g)),
                    false,
                ),
                Stmt::assign(a, Expr::sig(k), false),
            ]),
            Stmt::if_else(
                Expr::bin(BinaryOp::Eq, Expr::sig(sid), Expr::val(2, 1)),
                Stmt::assign(r, Expr::val(8, 0), false),
                Stmt::Block(vec![
                    Stmt::assign(a, Expr::val(8, 0), false),
                    Stmt::if_else(
                        Expr::bin(BinaryOp::Eq, Expr::sig(b), Expr::val(1, 0)),
                        Stmt::assign(
                            r,
                            Expr::bin(BinaryOp::Add, Expr::sig(r), Expr::val(8, 1)),
                            false,
                        ),
                        Stmt::assign(
                            r,
                            Expr::bin(BinaryOp::Mul, Expr::sig(a), Expr::sig(r)),
                            false,
                        ),
                    ),
                ]),
            ),
        )
    }

    #[test]
    fn fig5_structure() {
        let mut body = fig5_body();
        let vdg = Vdg::build(&mut body);
        // Three decisions: s==0, s==1, b==0.
        assert_eq!(vdg.decisions.len(), 3);
        // Six assignments.
        assert_eq!(vdg.segments.len(), 6);
        assert_eq!(vdg.node_count(), 9);
        // Decision read sets.
        assert_eq!(vdg.decisions[0].reads, vec![s(0)]);
        assert_eq!(vdg.decisions[1].reads, vec![s(0)]);
        assert_eq!(vdg.decisions[2].reads, vec![s(4)]);
        // First segment: r <= c + g reads {c, g}.
        assert_eq!(vdg.segments[0].reads, vec![s(1), s(2)]);
        assert_eq!(vdg.segments[0].target, s(5));
        // Last segment: r <= a * r reads {r, a}.
        assert_eq!(vdg.segments[5].reads, vec![s(5), s(6)]);
    }

    #[test]
    fn ids_are_embedded_in_statements() {
        let mut body = fig5_body();
        let _ = Vdg::build(&mut body);
        // Root decision must be d0.
        match &body {
            Stmt::If { decision, .. } => assert_eq!(*decision, DecisionId(0)),
            _ => panic!("expected If"),
        }
    }

    #[test]
    fn partial_write_target_is_in_segment_reads() {
        let mut body = Stmt::Assign {
            lhs: LValue::PartSelect {
                base: s(1),
                hi: 3,
                lo: 0,
            },
            rhs: Expr::sig(s(2)),
            blocking: false,
            segment: SegmentId(0),
        };
        let vdg = Vdg::build(&mut body);
        assert_eq!(vdg.segments[0].reads, vec![s(1), s(2)]);
        assert_eq!(vdg.segments[0].spans, vec![WHOLE, WHOLE]);
        assert!(vdg.segments[0].partial);
    }

    #[test]
    fn spans_hull_constant_selects_and_widen_to_whole_reads() {
        // if (c[2]) r <= {c[7:4], c[1:0], g[3], h[g]};
        let (c, g, h, r) = (s(1), s(2), s(3), s(5));
        let slice = |base, hi, lo| Expr::Slice { base, hi, lo };
        let mut body = Stmt::if_then(
            slice(c, 2, 2),
            Stmt::assign(
                r,
                Expr::Concat(vec![
                    slice(c, 7, 4),
                    slice(c, 1, 0),
                    slice(g, 3, 3),
                    Expr::Index {
                        base: h,
                        index: Box::new(Expr::sig(g)),
                    },
                ]),
                false,
            ),
        );
        let vdg = Vdg::build(&mut body);
        assert_eq!(vdg.decisions[0].reads, vec![c]);
        assert_eq!(vdg.decisions[0].spans, vec![(2, 2)]);
        assert_eq!(vdg.segments[0].reads, vec![c, g, h]);
        assert_eq!(vdg.segments[0].spans, vec![(0, 7), WHOLE, WHOLE]);
    }

    #[test]
    fn for_loop_contributes_one_decision() {
        let mut body = Stmt::For {
            init: Box::new(Stmt::assign(s(0), Expr::val(8, 0), true)),
            cond: Expr::bin(BinaryOp::Lt, Expr::sig(s(0)), Expr::val(8, 4)),
            step: Box::new(Stmt::assign(
                s(0),
                Expr::bin(BinaryOp::Add, Expr::sig(s(0)), Expr::val(8, 1)),
                true,
            )),
            body: Box::new(Stmt::assign(s(1), Expr::sig(s(0)), true)),
            decision: DecisionId(0),
        };
        let vdg = Vdg::build(&mut body);
        assert_eq!(vdg.decisions.len(), 1);
        assert_eq!(vdg.decisions[0].kind, DecisionKind::For);
        assert_eq!(vdg.segments.len(), 3); // init, body, step
    }

    #[test]
    fn case_decision_reads_labels() {
        let mut body = Stmt::Case {
            scrutinee: Expr::sig(s(0)),
            arms: vec![crate::stmt::CaseArm {
                labels: vec![Expr::sig(s(7))],
                body: Stmt::Nop,
            }],
            default: None,
            kind: crate::stmt::CaseKind::Exact,
            decision: DecisionId(0),
        };
        let vdg = Vdg::build(&mut body);
        assert_eq!(vdg.decisions[0].reads, vec![s(0), s(7)]);
    }
}
