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
//!
//! The word domain — fully defined values of at most 64 bits, where
//! `eval_expr_into` takes its two-state word path — has a generator of its
//! own (every value defined, widths {1, 7, 32, 63, 64}, plus one 65-bit
//! signal that forces the four-state fallback) and a named list of the
//! edges where word semantics could drift from four-state ones.

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

    /// A random fully defined value: a word of the two-state path when
    /// `width <= 64`.
    fn defined_vec(&mut self, width: u32) -> LogicVec {
        let bits: Vec<LogicBit> = (0..width)
            .map(|_| LogicBit::from(self.below(2) == 1))
            .collect();
        LogicVec::from_bits(&bits)
    }
}

/// The widths of the word domain.
const WORD_WIDTHS: [u32; 5] = [1, 7, 32, 63, 64];

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

/// A random constant of the four-state domain.
fn four_state_const(rng: &mut XorShift) -> LogicVec {
    let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
    rng.vec(w)
}

/// A random constant of the word domain.
fn word_const(rng: &mut XorShift) -> LogicVec {
    let w = WORD_WIDTHS[rng.below(WORD_WIDTHS.len() as u64) as usize];
    rng.defined_vec(w)
}

/// A random expression tree over `n_sigs` signals, `depth` levels deep
/// (the same distribution as the tape parity suite), its constants drawn
/// by `leaf`.
fn gen_expr(
    rng: &mut XorShift,
    n_sigs: u32,
    sig_width: &dyn Fn(u32) -> u32,
    leaf: fn(&mut XorShift) -> LogicVec,
    depth: u32,
) -> Expr {
    let sig = rng.below(n_sigs as u64) as u32;
    if depth == 0 {
        return match rng.below(3) {
            0 => Expr::Const(leaf(rng)),
            _ => Expr::sig(SignalId(sig)),
        };
    }
    let sub = |rng: &mut XorShift| gen_expr(rng, n_sigs, sig_width, leaf, depth - 1);
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
            four_state_const,
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

/// The word domain: every value fully defined and at most 64 bits wide,
/// except one 65-bit signal whose reads force the four-state fallback (its
/// low slices still take the word path).
#[test]
fn word_domain_matches_cloning_oracle_with_reused_buffers() {
    let mut rng = XorShift::new(0x5eed_2057);
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    let mut words = 0;
    for case in 0..CASES {
        let n_words = 1 + rng.below(6) as u32;
        let mut widths: Vec<u32> = (0..n_words)
            .map(|_| WORD_WIDTHS[rng.below(WORD_WIDTHS.len() as u64) as usize])
            .collect();
        widths.push(65);
        let vals: Vec<LogicVec> = widths.iter().map(|&w| rng.defined_vec(w)).collect();
        let widths_ref = widths.clone();
        let depth = 1 + rng.below(4) as u32;
        let expr = gen_expr(
            &mut rng,
            n_words + 1,
            &move |s: u32| widths_ref[s as usize],
            word_const,
            depth,
        );
        let expect = eval_expr_cloning(&expr, &vals);
        eval_expr_into(&expr, &vals, &mut scratch, &mut out);
        assert_eq!(
            out, expect,
            "case {case}: eval_expr_into diverged from the cloning oracle\nexpr: {expr:?}"
        );
        words += (expect.width() <= 64 && expect.is_fully_defined()) as usize;
    }
    // Out-of-range selects, wide concats and the 65-bit signal send the
    // rest to the fallback; well over a third must stay in the word domain,
    // or the suite tests the fallback instead (46 % at this seed).
    assert!(
        words * 3 > CASES,
        "only {words} of {CASES} results are defined words"
    );
}

/// A `width`-bit vector whose low 64 bits are `lo` and whose bits from 64
/// up are `hi`.
fn wide(width: u32, hi: u64, lo: u64) -> LogicVec {
    LogicVec::concat_lsb_first(&[
        &LogicVec::from_u64(64, lo),
        &LogicVec::from_u64(width - 64, hi),
    ])
}

/// The edges where two-state word semantics could drift from the
/// four-state ones, each checked against the cloning oracle.
#[test]
fn word_edge_cases_match_cloning_oracle() {
    let s = |i: u32| Expr::sig(SignalId(i));
    let c = Expr::val;
    let bin = Expr::bin;
    let base128 = wide(128, 0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    let mut x_high = base128.clone();
    x_high.set_bit(100, LogicBit::X);
    let vals = vec![
        LogicVec::from_u64(64, 0xffff_ffff_ffff_fff0), // 0: 64-bit, MSB set
        LogicVec::from_u64(64, 0),                     // 1: 64-bit zero
        LogicVec::from_u64(8, 0x81),                   // 2: 8-bit, MSB set
        base128,                                       // 3: 128-bit base
        wide(65, 1, 3),                                // 4: defined, wider than 64 bits
        // 5: 4-bit, holding X and Z
        LogicVec::from_bits(&[LogicBit::X, LogicBit::One, LogicBit::Z, LogicBit::Zero]),
        LogicVec::from_u64(1, 1),    // 6: true condition
        LogicVec::from_u64(1, 0),    // 7: false condition
        LogicVec::from_u64(7, 0x55), // 8: 7-bit
        x_high,                      // 9: 128-bit base, bit 100 X
    ];
    let slice = |base: u32, hi: u32, lo: u32| Expr::Slice {
        base: SignalId(base),
        hi,
        lo,
    };
    let index = |base: u32, i: u64| Expr::Index {
        base: SignalId(base),
        index: Box::new(c(8, i)),
    };
    let part = |base: u32, start: u64, width: u32| Expr::IndexedPart {
        base: SignalId(base),
        start: Box::new(c(8, start)),
        width,
    };
    let mux = |cond: Expr, t: Expr, e: Expr| Expr::Ternary {
        cond: Box::new(cond),
        then_e: Box::new(t),
        else_e: Box::new(e),
    };
    use BinaryOp::*;
    let exprs = vec![
        // `/` and `%` by zero.
        bin(Div, s(2), c(8, 0)),
        bin(Rem, s(2), c(8, 0)),
        bin(Div, s(0), s(1)),
        bin(Rem, s(0), s(1)),
        bin(Div, s(0), s(2)),
        bin(Rem, s(0), s(8)),
        // Shifts by 0, by width - 1, by at least the width, and by a
        // defined amount wider than 64 bits.
        bin(Shl, s(2), c(4, 0)),
        bin(Shl, s(2), c(4, 7)),
        bin(Shl, s(2), c(4, 8)),
        bin(Shl, s(2), c(8, 200)),
        bin(Shr, s(0), c(7, 63)),
        bin(Shr, s(0), c(7, 64)),
        bin(Shl, s(0), c(7, 63)),
        bin(Shl, s(0), c(64, u64::MAX)),
        bin(Shl, s(2), s(4)),
        bin(Shr, s(2), s(4)),
        bin(AShr, s(2), s(4)),
        // `>>>` with the MSB set.
        bin(AShr, s(2), c(4, 0)),
        bin(AShr, s(2), c(4, 3)),
        bin(AShr, s(2), c(4, 7)),
        bin(AShr, s(2), c(4, 9)),
        bin(AShr, s(0), c(7, 1)),
        bin(AShr, s(0), c(7, 63)),
        bin(AShr, s(0), c(7, 64)),
        bin(AShr, s(8), c(3, 2)),
        // Add, sub, mul and neg wrapping at 64 bits.
        bin(Add, s(0), s(0)),
        bin(Add, s(0), c(64, 0x10)),
        bin(Sub, s(1), c(1, 1)),
        bin(Mul, s(0), s(0)),
        bin(Mul, s(0), c(8, 0x81)),
        Expr::un(UnaryOp::Neg, s(1)),
        Expr::un(UnaryOp::Neg, c(64, 1)),
        Expr::un(UnaryOp::Not, s(0)),
        Expr::un(UnaryOp::RedAnd, c(64, u64::MAX)),
        Expr::un(UnaryOp::RedXor, s(0)),
        Expr::un(UnaryOp::LogicalNot, s(1)),
        bin(Lt, s(1), s(0)),
        bin(CaseNe, s(2), s(8)),
        // Concats of exactly 64 and of 65 bits; replication across 64.
        Expr::Concat(vec![c(32, 0xdead_beef), c(32, 0x0bad_f00d)]),
        Expr::Concat(vec![s(2), slice(0, 55, 0)]),
        Expr::Concat(vec![c(1, 1), s(0)]),
        Expr::Concat(vec![s(0), c(1, 1)]),
        Expr::Replicate(8, Box::new(s(2))),
        Expr::Replicate(9, Box::new(s(2))),
        Expr::Replicate(64, Box::new(c(1, 1))),
        Expr::Replicate(65, Box::new(c(1, 1))),
        // Slices, bit selects and indexed parts of a 128-bit base: inside
        // it, straddling a word boundary, and past its end.
        slice(3, 31, 0),
        slice(3, 63, 0),
        slice(3, 127, 64),
        slice(3, 70, 60),
        slice(3, 127, 120),
        slice(3, 130, 120),
        slice(3, 200, 190),
        slice(3, 127, 0),
        index(3, 0),
        index(3, 63),
        index(3, 64),
        index(3, 127),
        index(3, 128),
        part(3, 0, 16),
        part(3, 56, 16),
        part(3, 64, 64),
        part(3, 112, 16),
        part(3, 120, 16),
        part(3, 1, 64),
        // The same selects over an X at bit 100.
        slice(9, 99, 36),
        slice(9, 100, 37),
        index(9, 100),
        index(9, 101),
        part(9, 90, 16),
        part(9, 101, 27),
        // A ternary with a defined condition whose other branch holds X,
        // or is wider than a word.
        mux(s(6), s(2), s(5)),
        mux(s(7), s(5), s(2)),
        mux(s(6), s(8), s(2)),
        mux(s(7), s(2), s(3)),
        mux(s(6), s(0), s(4)),
        mux(s(5), s(2), s(8)),
        mux(s(1), s(5), c(64, 3)),
    ];
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    for e in &exprs {
        eval_expr_into(e, &vals, &mut scratch, &mut out);
        assert_eq!(out, eval_expr_cloning(e, &vals), "expr: {e:?}");
    }
}
