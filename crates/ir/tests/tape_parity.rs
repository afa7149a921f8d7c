//! Property test: the compiled-tape backend ([`compile_expr`] +
//! [`run_tape`]) is bit-identical to the frozen cloning oracle
//! (`eval_expr_cloning`) — and therefore to the tree walker — on randomized
//! expression trees, with one [`TapeScratch`] and one output buffer reused
//! across every case so slot-shape leakage between tapes would be caught.
//!
//! Signals span the width set {1, 7, 64, 65, 128}, so operands sit on
//! both sides of the inline/boxed storage boundary of `LogicVec`, and
//! mixed pairs cross it. Half the values are fully defined, so defined
//! arithmetic, shifts, compares, `Index` and `IndexedPart` reach the
//! property, not only their all-`X` results.

use eraser_ir::{
    compile_expr, eval_expr_cloning, run_tape, BinaryOp, Expr, SignalId, TapeScratch, UnaryOp,
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
/// (the same distribution as the tree-walker parity suite).
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
fn tape_matches_cloning_oracle_with_reused_scratch() {
    let mut rng = XorShift::new(0x7a9e0001);
    // One scratch arena and one output buffer across ALL cases — slot
    // shapes must never leak between tapes.
    let mut scratch = TapeScratch::new();
    let mut out = LogicVec::default();
    for case in 0..CASES {
        let n_sigs = 1 + rng.below(6) as u32;
        let widths: Vec<u32> = (0..n_sigs)
            .map(|_| WIDTHS[rng.below(WIDTHS.len() as u64) as usize])
            .collect();
        let vals: Vec<LogicVec> = widths.iter().map(|&w| rng.vec(w)).collect();
        let depth = 1 + rng.below(4) as u32;
        let expr = gen_expr(&mut rng, n_sigs, &|s: u32| widths[s as usize], depth);
        let tape = compile_expr(&expr, &|s| widths[s.index()]);
        let expect = eval_expr_cloning(&expr, &vals);
        run_tape(&tape, &vals, &mut scratch, &mut out);
        assert_eq!(
            out, expect,
            "case {case}: tape diverged from the cloning oracle\nexpr: {expr:?}\ntape: {tape:?}"
        );
    }
}

#[test]
fn recompiling_the_same_expression_is_deterministic() {
    let mut rng = XorShift::new(0xdead77);
    for _ in 0..40 {
        let widths = [8u32, 64, 128];
        let expr = gen_expr(&mut rng, 3, &|s: u32| widths[s as usize], 3);
        let a = compile_expr(&expr, &|s| widths[s.index()]);
        let b = compile_expr(&expr, &|s| widths[s.index()]);
        assert_eq!(a, b);
    }
}

/// Defined shift amounts wider than 64 bits must saturate through the tape
/// exactly as through the fixed `LogicVec` shifts — no all-`X` poisoning.
#[test]
fn tape_wide_defined_shift_amounts_saturate() {
    let widths = |_: SignalId| 0u32; // unused: expression has no signal leaves
    let mut amt = LogicVec::zeros(96);
    amt.set_bit(70, LogicBit::One);
    for (op, expect) in [
        (BinaryOp::Shl, LogicVec::zeros(8)),
        (BinaryOp::Shr, LogicVec::zeros(8)),
        (BinaryOp::AShr, LogicVec::ones(8)),
    ] {
        let e = Expr::bin(
            op,
            Expr::Const(LogicVec::from_u64(8, 0x80)),
            Expr::Const(amt.clone()),
        );
        let tape = compile_expr(&e, &widths);
        let mut scratch = TapeScratch::new();
        let mut out = LogicVec::default();
        let vals: Vec<LogicVec> = Vec::new();
        run_tape(&tape, vals.as_slice(), &mut scratch, &mut out);
        assert_eq!(out, expect, "{op:?}");
        assert_eq!(out, eval_expr_cloning(&e, vals.as_slice()), "{op:?}");
    }
}
