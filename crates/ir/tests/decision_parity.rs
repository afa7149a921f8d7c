//! Property test: a branch decision's outcome
//! (`DecisionEval::evaluate_with`, which decides on machine words where it
//! can and on the four-state walk where it cannot) equals an oracle written
//! here from the frozen cloning evaluator (`eval_expr_cloning`) and the
//! four-state match rules (`LogicVec::case_eq`, `LogicVec::casez_match`).
//!
//! Random `if`, `case` and `casez` decisions draw signals and constants
//! from the widths {1, 7, 32, 63, 64, 65}, values with and without `X`/`Z`
//! bits, constant and signal labels, labels that copy the scrutinee's value
//! (so arms match), duplicate labels, and the default a miss falls to. One
//! scratch arena serves every case. A named list covers the edges where
//! the word form of the case rule could drift from the four-state one.

use eraser_ir::{
    eval_expr_cloning, BinaryOp, CaseKind, DecisionEval, EvalScratch, Expr, SignalId, Stmt,
    UnaryOp, Vdg,
};
use eraser_logic::{LogicBit, LogicVec};

const CASES: usize = 20_000;
const WIDTHS: [u32; 6] = [1, 7, 32, 63, 64, 65];

struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn width(&mut self) -> u32 {
        WIDTHS[self.below(WIDTHS.len() as u64) as usize]
    }

    /// A random value: fully defined three times in four, otherwise with
    /// a few `X`/`Z` bits among defined ones.
    fn vec(&mut self, width: u32) -> LogicVec {
        let unknown = self.below(4) == 0;
        let bits: Vec<LogicBit> = (0..width)
            .map(|_| match self.below(if unknown { 8 } else { 2 }) {
                0 | 2 | 4 => LogicBit::Zero,
                1 | 3 | 5 => LogicBit::One,
                6 => LogicBit::Z,
                _ => LogicBit::X,
            })
            .collect();
        LogicVec::from_bits(&bits)
    }
}

/// The decision's outcome by the four-state rules, and whether the word
/// path can decide it: a condition or scrutinee that is a defined word of
/// at most 64 bits, and, up to the matching arm, constant labels of at most
/// 64 bits and computed labels that are defined words.
fn oracle(d: &DecisionEval, vals: &[LogicVec]) -> (u32, bool) {
    let is_word = |v: &LogicVec| v.width() <= 64 && v.is_fully_defined();
    match d {
        DecisionEval::Truth(cond) => {
            let v = eval_expr_cloning(cond, vals);
            ((v.truth() == LogicBit::One) as u32, is_word(&v))
        }
        DecisionEval::Case {
            scrutinee,
            arm_labels,
            kind,
        } => {
            let v = eval_expr_cloning(scrutinee, vals);
            let mut words = is_word(&v);
            for (i, labels) in arm_labels.iter().enumerate() {
                for l in labels {
                    let lv = eval_expr_cloning(l, vals);
                    words &= match l {
                        Expr::Const(c) => c.width() <= 64,
                        _ => is_word(&lv),
                    };
                    let hit = match kind {
                        CaseKind::Exact => v.case_eq(&lv),
                        CaseKind::Z => v.casez_match(&lv),
                    };
                    if hit {
                        return (i as u32, words);
                    }
                }
            }
            (arm_labels.len() as u32, words)
        }
    }
}

/// A small random expression over the signals: a signal, a slice, a
/// reduction, or a compare or arithmetic operator over two of them.
fn gen_expr(rng: &mut XorShift, widths: &[u32], depth: u32) -> Expr {
    let sig = rng.below(widths.len() as u64) as u32;
    if depth == 0 {
        return Expr::sig(SignalId(sig));
    }
    let sub = |rng: &mut XorShift| gen_expr(rng, widths, depth - 1);
    match rng.below(6) {
        0 => Expr::sig(SignalId(sig)),
        1 => {
            let hi = rng.below(widths[sig as usize] as u64) as u32;
            let lo = rng.below(hi as u64 + 1) as u32;
            Expr::Slice {
                base: SignalId(sig),
                hi,
                lo,
            }
        }
        2 => Expr::Unary(UnaryOp::RedOr, Box::new(sub(rng))),
        3 => Expr::bin(BinaryOp::Eq, sub(rng), sub(rng)),
        4 => Expr::bin(BinaryOp::Lt, sub(rng), sub(rng)),
        _ => Expr::bin(BinaryOp::Add, sub(rng), sub(rng)),
    }
}

/// A case label: a constant (random, or the scrutinee's own value resized,
/// with `Z` wildcards for a `casez`), a signal, an expression, or a copy
/// of an earlier label.
fn gen_label(
    rng: &mut XorShift,
    widths: &[u32],
    scrutinee: &LogicVec,
    kind: CaseKind,
    earlier: &[Expr],
) -> Expr {
    match rng.below(7) {
        0 | 1 => {
            let w = if rng.below(2) == 0 {
                scrutinee.width()
            } else {
                rng.width()
            };
            let mut c = scrutinee.resize(w);
            if kind == CaseKind::Z {
                for _ in 0..rng.below(3) {
                    c.set_bit(rng.below(w as u64) as u32, LogicBit::Z);
                }
            }
            Expr::Const(c)
        }
        2 => {
            let w = rng.width();
            Expr::Const(rng.vec(w))
        }
        3 => Expr::sig(SignalId(rng.below(widths.len() as u64) as u32)),
        4 if !earlier.is_empty() => earlier[rng.below(earlier.len() as u64) as usize].clone(),
        _ => gen_expr(rng, widths, 1),
    }
}

#[test]
fn evaluate_with_matches_four_state_oracle() {
    let mut rng = XorShift::new(0xdec1_5105);
    let mut scratch = EvalScratch::new();
    let (mut words, mut by_kind) = (0, [0usize; 3]);
    for case in 0..CASES {
        let n_sigs = 1 + rng.below(5) as usize;
        let widths: Vec<u32> = (0..n_sigs).map(|_| rng.width()).collect();
        let vals: Vec<LogicVec> = widths.iter().map(|&w| rng.vec(w)).collect();
        let k = rng.below(3) as usize;
        let d = if k == 0 {
            let depth = rng.below(3) as u32;
            DecisionEval::Truth(gen_expr(&mut rng, &widths, depth))
        } else {
            let kind = [CaseKind::Exact, CaseKind::Z][k - 1];
            let depth = rng.below(2) as u32;
            let scrutinee = gen_expr(&mut rng, &widths, depth);
            let sv = eval_expr_cloning(&scrutinee, &vals);
            let mut earlier = Vec::new();
            let arm_labels: Vec<Vec<Expr>> = (0..1 + rng.below(4))
                .map(|_| {
                    (0..1 + rng.below(2))
                        .map(|_| {
                            let l = gen_label(&mut rng, &widths, &sv, kind, &earlier);
                            earlier.push(l.clone());
                            l
                        })
                        .collect()
                })
                .collect();
            DecisionEval::Case {
                scrutinee,
                arm_labels,
                kind,
            }
        };
        let (expect, word) = oracle(&d, &vals);
        assert_eq!(
            d.evaluate_with(&vals, &mut scratch),
            expect,
            "case {case}: the decision diverged from the four-state oracle\n\
             decision: {d:?}\nvalues: {vals:?}"
        );
        words += word as usize;
        by_kind[k] += 1;
    }
    // Unknown bits, 65-bit values and wide labels send the rest to the
    // fallback; at least a third must take the word path, or the suite
    // tests the fallback instead (59 % at this seed).
    assert!(
        words * 3 > CASES,
        "only {words} of {CASES} decisions take the word path"
    );
    assert!(by_kind.iter().all(|&n| n * 4 > CASES), "{by_kind:?}");
}

/// Checks one decision against the oracle and against its known outcome.
fn check(d: &DecisionEval, vals: &[LogicVec], outcome: u32) {
    let mut scratch = EvalScratch::new();
    assert_eq!(oracle(d, vals).0, outcome, "oracle on {d:?}");
    assert_eq!(d.evaluate_with(vals, &mut scratch), outcome, "{d:?}");
}

fn case(kind: CaseKind, scrutinee: Expr, arm_labels: Vec<Vec<Expr>>) -> DecisionEval {
    DecisionEval::Case {
        scrutinee,
        arm_labels,
        kind,
    }
}

fn lit(s: &str) -> Expr {
    Expr::Const(LogicVec::parse_literal(s).unwrap())
}

/// The edges where the word form of the case rule could drift from the
/// four-state one, each checked against the oracle and its known arm.
#[test]
fn decision_edge_cases_match_oracle() {
    let s = |i: u32| Expr::sig(SignalId(i));
    let vals = vec![
        LogicVec::from_u64(8, 0x5a),   // 0: 8-bit scrutinee
        LogicVec::from_u64(32, 0x3),   // 1: 32-bit scrutinee
        LogicVec::from_u64(4, 0b1101), // 2: 4-bit scrutinee
        LogicVec::from_u64(4, 0b1011), // 3
        LogicVec::from_u64(16, 0x5a),  // 4: a signal label wider than s0
    ];
    use CaseKind::{Exact, Z};

    // A label wider than the scrutinee compares the zero-extended value.
    check(
        &case(
            Exact,
            s(0),
            vec![vec![lit("16'h015a")], vec![lit("16'h005a")]],
        ),
        &vals,
        1,
    );
    check(&case(Exact, s(0), vec![vec![s(4)]]), &vals, 0);
    // A scrutinee wider than every label: the labels are zero-extended.
    check(
        &case(Exact, s(1), vec![vec![lit("8'h03")], vec![lit("2'b11")]]),
        &vals,
        0,
    );
    check(&case(Exact, s(1), vec![vec![lit("1'b1")]]), &vals, 1);
    // A casez label's `?` bits are wildcards.
    check(
        &case(Z, s(2), vec![vec![lit("4'b0???")], vec![lit("4'b1?0?")]]),
        &vals,
        1,
    );
    check(
        &case(Z, s(3), vec![vec![lit("4'b1?0?")], vec![lit("4'b?0?1")]]),
        &vals,
        1,
    );
    // An exact label holding `X` never matches a defined scrutinee.
    check(&case(Exact, s(3), vec![vec![lit("4'b10x1")]]), &vals, 1);
    // Nor does an `X` bit outside a casez label's wildcards.
    check(
        &case(Z, s(3), vec![vec![lit("4'bx0?1")], vec![lit("4'b?0?1")]]),
        &vals,
        1,
    );
    // An exact label holding `Z` is a value, not a wildcard.
    check(
        &case(Exact, s(3), vec![vec![lit("4'b10z1")], vec![s(3)]]),
        &vals,
        1,
    );
    // A 65-bit label sends the decision to the fallback, which matches it
    // at the common width.
    check(
        &case(Exact, s(0), vec![vec![lit("65'h1_0000_0000_0000_005a")]]),
        &vals,
        1,
    );
    check(
        &case(Exact, s(0), vec![vec![lit("65'h5a")], vec![s(0)]]),
        &vals,
        0,
    );
    check(&case(Z, s(0), vec![vec![lit("65'h5?")]]), &vals, 0);
    // A scrutinee with `Z` bits takes the fallback; casez treats them as
    // wildcards (IEEE 1364-2005 §9.5.1).
    let z = vec![LogicVec::parse_literal("4'bz001").unwrap()];
    check(
        &case(Z, s(0), vec![vec![lit("4'b0011")], vec![lit("4'b1001")]]),
        &z,
        1,
    );
    check(&case(Exact, s(0), vec![vec![lit("4'b1001")]]), &z, 1);
    // Duplicate labels: the first arm that holds one wins; a miss takes
    // the default.
    check(
        &case(Exact, s(2), vec![vec![lit("4'hd")], vec![lit("4'hd")]]),
        &vals,
        0,
    );
    check(
        &case(Exact, s(2), vec![vec![lit("4'hc"), lit("4'hc")]]),
        &vals,
        1,
    );
    // `if`: an unknown condition takes `else`.
    check(&DecisionEval::Truth(s(0)), &vals, 1);
    check(&DecisionEval::Truth(lit("4'b0x00")), &vals, 0);
    check(
        &DecisionEval::Truth(lit("65'h1_0000_0000_0000_0000")),
        &vals,
        1,
    );
}

/// A `for` condition decides on words as an `if` does, read out of the
/// decision the VDG builds for the loop.
#[test]
fn for_condition_matches_oracle() {
    let i = SignalId(0);
    let mut body = Stmt::For {
        init: Box::new(Stmt::assign(i, Expr::val(8, 0), true)),
        cond: Expr::bin(BinaryOp::Lt, Expr::sig(i), Expr::val(8, 4)),
        step: Box::new(Stmt::assign(
            i,
            Expr::bin(BinaryOp::Add, Expr::sig(i), Expr::val(8, 1)),
            true,
        )),
        body: Box::new(Stmt::assign(SignalId(1), Expr::sig(i), true)),
        decision: eraser_ir::DecisionId(0),
    };
    let vdg = Vdg::build(&mut body);
    let d = &vdg.decisions[0].eval;
    for (v, outcome) in [(0, 1), (3, 1), (4, 0), (200, 0)] {
        check(d, &[LogicVec::from_u64(8, v), LogicVec::new_x(8)], outcome);
    }
    check(d, &[LogicVec::new_x(8), LogicVec::new_x(8)], 0);
}
