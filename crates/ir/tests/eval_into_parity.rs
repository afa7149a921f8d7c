//! Property test: the scratch-arena evaluator (`eval_expr_into`) is
//! bit-identical to the frozen pre-change evaluator (`eval_expr_cloning`)
//! on randomized expression trees — with the scratch arena and the output
//! buffer reused across every case, so any width/shape leakage between
//! evaluations would be caught.
//!
//! Signals span the width set {1, 7, 64, 65, 128} and all four logic
//! states, half of them fully defined; trees exercise every operator,
//! including concat, replication, dynamic indexing, indexed part selects
//! and ternaries with unknown conditions.

use eraser_ir::{
    eval_expr_cloning, eval_expr_into, BinaryOp, EvalScratch, Expr, SignalId, UnaryOp,
};
use eraser_logic::{LogicBit, LogicVec};

const CASES: usize = 20_000;
const WIDTHS: [u32; 5] = [1, 7, 64, 65, 128];

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

    /// A random value: fully defined half the time, so arithmetic, shifts,
    /// compares and dynamic selects see defined operands; otherwise every
    /// bit is drawn from {0, 1, Z, X}.
    fn vec(&mut self, width: u32) -> LogicVec {
        let states = if self.below(2) == 0 { 2 } else { 4 };
        let bits: Vec<LogicBit> = (0..width)
            .map(|_| match self.below(states) {
                0 => LogicBit::Zero,
                1 => LogicBit::One,
                2 => LogicBit::Z,
                _ => LogicBit::X,
            })
            .collect();
        LogicVec::from_bits(&bits)
    }
}

const BINOPS: [BinaryOp; 22] = [
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Xnor,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::AShr,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::CaseEq,
    BinaryOp::CaseNe,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::LogicalAnd,
    BinaryOp::LogicalOr,
];

const UNOPS: [UnaryOp; 6] = [
    UnaryOp::Not,
    UnaryOp::Neg,
    UnaryOp::LogicalNot,
    UnaryOp::RedAnd,
    UnaryOp::RedOr,
    UnaryOp::RedXor,
];

/// A random expression tree over `n_sigs` signals, `depth` levels deep
/// (the same distribution as the tape parity suite).
fn gen_expr(rng: &mut XorShift, n_sigs: u32, sig_width: &dyn Fn(u32) -> u32, depth: u32) -> Expr {
    let sig = rng.below(n_sigs as u64) as u32;
    if depth == 0 {
        return match rng.below(3) {
            0 => {
                let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
                Expr::Const(rng.vec(w))
            }
            _ => Expr::sig(SignalId(sig)),
        };
    }
    let sub = |rng: &mut XorShift| gen_expr(rng, n_sigs, sig_width, depth - 1);
    match rng.below(9) {
        0 => Expr::Unary(
            UNOPS[rng.below(UNOPS.len() as u64) as usize],
            Box::new(sub(rng)),
        ),
        1 | 2 => Expr::bin(
            BINOPS[rng.below(BINOPS.len() as u64) as usize],
            sub(rng),
            sub(rng),
        ),
        3 => Expr::Ternary {
            cond: Box::new(sub(rng)),
            then_e: Box::new(sub(rng)),
            else_e: Box::new(sub(rng)),
        },
        4 => {
            let n = 1 + rng.below(3) as usize;
            Expr::Concat((0..n).map(|_| sub(rng)).collect())
        }
        5 => Expr::Replicate(1 + rng.below(3) as u32, Box::new(sub(rng))),
        6 => {
            let w = sig_width(sig);
            let hi = rng.below(w as u64 + 4) as u32;
            let lo = rng.below(hi as u64 + 1) as u32;
            Expr::Slice {
                base: SignalId(sig),
                hi,
                lo,
            }
        }
        7 => Expr::IndexedPart {
            base: SignalId(sig),
            start: Box::new(sub(rng)),
            width: 1 + rng.below(16) as u32,
        },
        _ => Expr::Index {
            base: SignalId(sig),
            index: Box::new(sub(rng)),
        },
    }
}

#[test]
fn eval_expr_into_matches_cloning_oracle_with_reused_buffers() {
    let mut rng = XorShift::new(0x0f2e7a11);
    // One scratch arena and one output buffer across ALL cases — the point
    // of the test is that nothing leaks between evaluations.
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    for case in 0..CASES {
        let n_sigs = 1 + rng.below(6) as u32;
        let widths: Vec<u32> = (0..n_sigs)
            .map(|_| WIDTHS[rng.below(WIDTHS.len() as u64) as usize])
            .collect();
        let vals: Vec<LogicVec> = widths.iter().map(|&w| rng.vec(w)).collect();
        let widths_ref = widths.clone();
        let depth = 1 + rng.below(4) as u32;
        let expr = gen_expr(
            &mut rng,
            n_sigs,
            &move |s: u32| widths_ref[s as usize],
            depth,
        );
        let expect = eval_expr_cloning(&expr, &vals);
        eval_expr_into(&expr, &vals, &mut scratch, &mut out);
        assert_eq!(
            out, expect,
            "case {case}: eval_expr_into diverged from the cloning oracle\nexpr: {expr:?}"
        );
    }
}

#[test]
fn indexed_part_parity_including_out_of_range() {
    let mut rng = XorShift::new(0x77aa);
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    for _ in 0..CASES {
        let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
        let vals = vec![rng.vec(w), rng.vec(8)];
        let expr = Expr::IndexedPart {
            base: SignalId(0),
            start: Box::new(Expr::sig(SignalId(1))),
            width: 1 + rng.below(16) as u32,
        };
        let expect = eval_expr_cloning(&expr, &vals);
        eval_expr_into(&expr, &vals, &mut scratch, &mut out);
        assert_eq!(out, expect);
    }
}
