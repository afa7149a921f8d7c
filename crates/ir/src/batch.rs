//! Bit-parallel (PPSFP-style) batch evaluation of RTL nodes.
//!
//! The scalar engines evaluate divergent faults one machine at a time; this
//! module evaluates up to [`eraser_logic::LANES`] fault machines at once by
//! transposing their ≤ 64-bit operand values into [`LanePlanes`] (word `j`
//! holds bit `j` of every lane) and applying the *same* four-state word
//! formulas as the scalar operators ([`crate::ops`]) word-by-word over the
//! planes. Every such formula is bitwise across bit positions, so the
//! transposition is exact: lane `i` of the batch result is bit-identical to
//! a scalar evaluation of machine `i`, including `X`/`Z` propagation — no
//! lane ever needs an X fallback.
//!
//! A [`BatchTape`] is compiled per RTL node by [`BatchProgram::compile`].
//! Compilation is partial by design: nodes whose operator is not
//! word-parallel (multiplication, division, shifts, variable indexing,
//! constants) or that touch a signal wider than 64 bits get `None` and fall
//! back to the scalar path. The batchable set covers the bitwise, reduction,
//! logical, equality, comparison and ripple-carry add/sub operators plus
//! mux, concatenation, replication and constant part selects — the bulk of
//! the combinational network on the benchmark suite.
//!
//! Like a scalar RTL-node evaluation, a batch result is forced to the
//! output signal's declared width: computed bits are truncated to it and
//! missing bits are zero (matching `resize_assign` zero-extension, which
//! applies even to an all-X natural result).

use crate::design::Design;
use crate::expr::{BinaryOp, UnaryOp};
use crate::node::{RtlNode, RtlOp};
use eraser_logic::LanePlanes;

/// The word-parallel operator of a [`BatchTape`]. Unbatchable operators are
/// unrepresentable — compilation rejects them instead.
#[derive(Debug, Clone, PartialEq)]
enum BatchOp {
    /// Identity buffer.
    Buf,
    /// A unary operator (all six are word-parallel).
    Unary(UnaryOp),
    /// A word-parallel binary operator (compilation excludes `Mul`, `Div`,
    /// `Rem` and the shifts).
    Binary(BinaryOp),
    /// Ternary select with bit-wise X merge; inputs `[cond, then, else]`.
    Mux,
    /// Concatenation, inputs MSB-first.
    Concat,
    /// Replication of the single input.
    Replicate(u32),
    /// Constant part select `input[hi:lo]`.
    Slice {
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
}

/// A compiled batch evaluation of one RTL node: one word-parallel operator
/// plus the forced output width.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTape {
    op: BatchOp,
    out_width: u32,
}

impl BatchTape {
    /// The output signal width the batch result is forced to.
    pub fn out_width(&self) -> u32 {
        self.out_width
    }
}

/// Compiles `node` into a batch tape, or `None` if the node must stay on
/// the scalar path (non-word-parallel operator, or any signal > 64 bits).
fn compile_node(
    node: &RtlNode,
    sig_width: &dyn Fn(crate::ids::SignalId) -> u32,
) -> Option<BatchTape> {
    let out_width = sig_width(node.output);
    if out_width > 64 || node.inputs.iter().any(|&s| sig_width(s) > 64) {
        return None;
    }
    let op = match &node.op {
        RtlOp::Buf => BatchOp::Buf,
        RtlOp::Unary(u) => BatchOp::Unary(*u),
        RtlOp::Binary(b) => match b {
            // Multiplication/division are not bitwise across positions;
            // shift amounts are lane-variant signals (a constant amount
            // reaches the node as a `Const`-driven signal that can itself
            // carry fault differences), so all of these stay scalar.
            BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Rem
            | BinaryOp::Shl
            | BinaryOp::Shr
            | BinaryOp::AShr => return None,
            _ => BatchOp::Binary(*b),
        },
        RtlOp::Mux => BatchOp::Mux,
        RtlOp::Concat => BatchOp::Concat,
        RtlOp::Replicate(n) => BatchOp::Replicate(*n),
        RtlOp::Slice { hi, lo } => BatchOp::Slice { hi: *hi, lo: *lo },
        // Constant drivers have no inputs, so no fault machine can ever
        // diverge on them; Index/IndexedPart select by a lane-variant
        // signal value. All stay scalar.
        RtlOp::Const(_) | RtlOp::Index | RtlOp::IndexedPart { .. } => return None,
    };
    Some(BatchTape { op, out_width })
}

/// The compiled batch plane of a design: one optional [`BatchTape`] per RTL
/// node, indexed by [`RtlNodeId`](crate::ids::RtlNodeId).
///
/// Lanes a node cannot batch fall back to the one scalar RTL-node
/// evaluator, which computes the same bits.
#[derive(Debug, Clone, Default)]
pub struct BatchProgram {
    rtl: Vec<Option<BatchTape>>,
}

impl BatchProgram {
    /// Compiles the batchable subset of `design`'s RTL nodes.
    pub fn compile(design: &Design) -> Self {
        let width = |s: crate::ids::SignalId| design.signal(s).width;
        BatchProgram {
            rtl: design
                .rtl_nodes()
                .iter()
                .map(|n| compile_node(n, &width))
                .collect(),
        }
    }

    /// The batch tape of RTL node `index`, if the node is batchable.
    #[inline]
    pub fn rtl(&self, index: usize) -> Option<&BatchTape> {
        self.rtl[index].as_ref()
    }
}

// ---- word-parallel kernels ----

/// Mask of lanes with any unknown (`X`/`Z`) bit anywhere in the value.
#[inline]
fn x_lanes(p: &LanePlanes) -> u64 {
    let mut m = 0;
    for j in 0..p.width() {
        m |= p.word(j).1;
    }
    m
}

/// Per-lane truth value as `(one, x)` lane masks (`zero` is the rest): the
/// lane form of `LogicVec::truth` — `1` if any defined `1` bit, else `X` if
/// any unknown bit, else `0`.
#[inline]
fn truth_lanes(p: &LanePlanes) -> (u64, u64) {
    let mut one = 0;
    let mut unk = 0;
    for j in 0..p.width() {
        let (a, b) = p.word(j);
        one |= a & !b;
        unk |= b;
    }
    (one, !one & unk)
}

/// Writes a single-bit result whose defined value is the `val` lane mask
/// and whose unknown lanes are `x` (bit 0 of the output; higher forced
/// bits stay zero).
#[inline]
fn set_bit0(out: &mut LanePlanes, val: u64, x: u64) {
    out.set_word(0, (val & !x) | x, x);
}

/// Ripple-carry sum of per-position lane words `l + r + carry_in`, written
/// to the low `n` output bits with unknown lanes `x` forced to X. Exact
/// under truncation: bit `j` of a sum depends only on bits `0..=j`.
#[inline]
fn ripple_add(
    out: &mut LanePlanes,
    n: u32,
    x: u64,
    mut carry: u64,
    word: impl Fn(u32) -> (u64, u64),
) {
    for j in 0..n {
        let (la, ra) = word(j);
        let s = la ^ ra ^ carry;
        carry = (la & ra) | (carry & (la ^ ra));
        out.set_word(j, (s & !x) | x, x);
    }
}

/// Per-lane unsigned comparison over the zero-extended operands, MSB first:
/// returns `(lt, gt)` lane masks (equal lanes are in neither).
#[inline]
fn cmp_lanes(l: &LanePlanes, r: &LanePlanes) -> (u64, u64) {
    let maxw = l.width().max(r.width());
    let (mut lt, mut gt) = (0u64, 0u64);
    for j in (0..maxw).rev() {
        let la = l.word(j).0;
        let ra = r.word(j).0;
        let undec = !lt & !gt;
        gt |= undec & la & !ra;
        lt |= undec & !la & ra;
    }
    (lt, gt)
}

/// Lane mask of operand pairs that differ on their defined (`aval`) planes
/// over the zero-extended width — the lane form of `la != ra` on fully
/// defined words.
#[inline]
fn ne_lanes(l: &LanePlanes, r: &LanePlanes) -> u64 {
    let maxw = l.width().max(r.width());
    let mut ne = 0;
    for j in 0..maxw {
        ne |= l.word(j).0 ^ r.word(j).0;
    }
    ne
}

/// Evaluates `tape` over `inputs` (one plane per RTL-node input, in node
/// order) into `out`, which is reshaped to the forced output width with
/// every computed lane exact.
///
/// Lanes of `out` beyond those actually packed by the caller hold
/// whatever the input planes' corresponding lanes held (normally the
/// broadcast good value) — the caller decides which lanes are meaningful.
pub fn run_batch(tape: &BatchTape, inputs: &[LanePlanes], out: &mut LanePlanes) {
    let ow = tape.out_width;
    out.reset(ow);
    match &tape.op {
        BatchOp::Buf => {
            let p = &inputs[0];
            for j in 0..ow.min(p.width()) {
                let (a, b) = p.word(j);
                out.set_word(j, a, b);
            }
        }
        BatchOp::Unary(u) => run_unary(*u, &inputs[0], ow, out),
        BatchOp::Binary(b) => run_binary(*b, &inputs[0], &inputs[1], ow, out),
        BatchOp::Mux => {
            let (cond, t, e) = (&inputs[0], &inputs[1], &inputs[2]);
            let (c_one, c_x) = truth_lanes(cond);
            let c_zero = !(c_one | c_x);
            for j in 0..ow.min(t.width().max(e.width())) {
                let (ta, tb) = t.word(j);
                let (ea, eb) = e.word(j);
                // Per-bit X merge for unknown conditions: agreeing defined
                // bits survive (the lane form of `merge_x_assign`).
                let agree = !(ta ^ ea) & !(tb ^ eb);
                let keep = agree & !tb;
                let (ma, mb) = ((ta & keep) | !keep, !keep);
                out.set_word(
                    j,
                    (c_one & ta) | (c_zero & ea) | (c_x & ma),
                    (c_one & tb) | (c_zero & eb) | (c_x & mb),
                );
            }
        }
        BatchOp::Concat => {
            // Source order is MSB-first; output bits run LSB-first.
            let mut j = 0;
            'parts: for p in inputs.iter().rev() {
                for k in 0..p.width() {
                    if j >= ow {
                        break 'parts;
                    }
                    let (a, b) = p.word(k);
                    out.set_word(j, a, b);
                    j += 1;
                }
            }
        }
        BatchOp::Replicate(n) => {
            let p = &inputs[0];
            for j in 0..ow.min(p.width() * n) {
                let (a, b) = p.word(j % p.width());
                out.set_word(j, a, b);
            }
        }
        BatchOp::Slice { hi, lo } => {
            let p = &inputs[0];
            for j in 0..ow.min(hi - lo + 1) {
                // Bits beyond the source width read as X in every lane
                // (out-of-range part select), matching `slice_into`.
                let (a, b) = if lo + j < p.width() {
                    p.word(lo + j)
                } else {
                    (u64::MAX, u64::MAX)
                };
                out.set_word(j, a, b);
            }
        }
    }
}

/// Word-parallel unary operators — the lane transposition of the scalar
/// `ops::unary`.
fn run_unary(op: UnaryOp, p: &LanePlanes, ow: u32, out: &mut LanePlanes) {
    let w = p.width();
    match op {
        UnaryOp::Not => {
            for j in 0..ow.min(w) {
                let (a, b) = p.word(j);
                out.set_word(j, (!a & !b) | b, b);
            }
        }
        UnaryOp::Neg => {
            // `-a = !a + 1`; unknown lanes are all-X across the natural
            // width.
            let x = x_lanes(p);
            ripple_add(out, ow.min(w), x, u64::MAX, |j| (!p.word(j).0, 0));
        }
        UnaryOp::LogicalNot => {
            let (one, x) = truth_lanes(p);
            set_bit0(out, !(one | x), x);
        }
        UnaryOp::RedAnd => {
            // A defined 0 bit dominates any unknown: the lane is 0.
            let mut zero = 0;
            let mut unk = 0;
            for j in 0..w {
                let (a, b) = p.word(j);
                zero |= !a & !b;
                unk |= b;
            }
            let x = !zero & unk;
            set_bit0(out, !zero, x);
        }
        UnaryOp::RedOr => {
            let (one, x) = truth_lanes(p);
            set_bit0(out, one, x);
        }
        UnaryOp::RedXor => {
            let x = x_lanes(p);
            let mut parity = 0;
            for j in 0..w {
                parity ^= p.word(j).0;
            }
            set_bit0(out, parity, x);
        }
    }
}

/// Word-parallel binary operators — the lane transposition of the scalar
/// `ops::binary` (the unbatchable operators are rejected at compile time).
fn run_binary(op: BinaryOp, l: &LanePlanes, r: &LanePlanes, ow: u32, out: &mut LanePlanes) {
    let n = ow.min(l.width().max(r.width()));
    match op {
        BinaryOp::And => {
            for j in 0..n {
                let (la, lb) = l.word(j);
                let (ra, rb) = r.word(j);
                let def0 = (!la & !lb) | (!ra & !rb);
                let x = (lb | rb) & !def0;
                let one = (la & !lb) & (ra & !rb);
                out.set_word(j, one | x, x);
            }
        }
        BinaryOp::Or => {
            for j in 0..n {
                let (la, lb) = l.word(j);
                let (ra, rb) = r.word(j);
                let one = (la & !lb) | (ra & !rb);
                let x = (lb | rb) & !one;
                out.set_word(j, one | x, x);
            }
        }
        BinaryOp::Xor => {
            for j in 0..n {
                let (la, lb) = l.word(j);
                let (ra, rb) = r.word(j);
                let x = lb | rb;
                out.set_word(j, ((la ^ ra) & !x) | x, x);
            }
        }
        BinaryOp::Xnor => {
            for j in 0..n {
                let (la, lb) = l.word(j);
                let (ra, rb) = r.word(j);
                let x = lb | rb;
                out.set_word(j, (!(la ^ ra) & !x) | x, x);
            }
        }
        BinaryOp::Add => {
            let x = x_lanes(l) | x_lanes(r);
            ripple_add(out, n, x, 0, |j| (l.word(j).0, r.word(j).0));
        }
        BinaryOp::Sub => {
            // `l - r = l + !r + 1`, complementing the zero-extended right
            // operand at every bit position.
            let x = x_lanes(l) | x_lanes(r);
            ripple_add(out, n, x, u64::MAX, |j| (l.word(j).0, !r.word(j).0));
        }
        BinaryOp::Eq => {
            let x = x_lanes(l) | x_lanes(r);
            set_bit0(out, !ne_lanes(l, r), x);
        }
        BinaryOp::Ne => {
            let x = x_lanes(l) | x_lanes(r);
            set_bit0(out, ne_lanes(l, r), x);
        }
        BinaryOp::CaseEq | BinaryOp::CaseNe => {
            // Case equality is never X: both planes must match exactly.
            let maxw = l.width().max(r.width());
            let mut diff = 0;
            for j in 0..maxw {
                let (la, lb) = l.word(j);
                let (ra, rb) = r.word(j);
                diff |= (la ^ ra) | (lb ^ rb);
            }
            let val = if op == BinaryOp::CaseEq { !diff } else { diff };
            set_bit0(out, val, 0);
        }
        BinaryOp::Lt => {
            let x = x_lanes(l) | x_lanes(r);
            let (lt, _) = cmp_lanes(l, r);
            set_bit0(out, lt, x);
        }
        BinaryOp::Le => {
            let x = x_lanes(l) | x_lanes(r);
            let (_, gt) = cmp_lanes(l, r);
            set_bit0(out, !gt, x);
        }
        BinaryOp::Gt => {
            let x = x_lanes(l) | x_lanes(r);
            let (_, gt) = cmp_lanes(l, r);
            set_bit0(out, gt, x);
        }
        BinaryOp::Ge => {
            let x = x_lanes(l) | x_lanes(r);
            let (lt, _) = cmp_lanes(l, r);
            set_bit0(out, !lt, x);
        }
        BinaryOp::LogicalAnd => {
            let (l_one, l_x) = truth_lanes(l);
            let (r_one, r_x) = truth_lanes(r);
            let zero = !(l_one | l_x) | !(r_one | r_x);
            let one = l_one & r_one;
            set_bit0(out, one, !(one | zero));
        }
        BinaryOp::LogicalOr => {
            let (l_one, l_x) = truth_lanes(l);
            let (r_one, r_x) = truth_lanes(r);
            let zero = !(l_one | l_x) & !(r_one | r_x);
            let one = l_one | r_one;
            set_bit0(out, one, !(one | zero));
        }
        BinaryOp::Mul
        | BinaryOp::Div
        | BinaryOp::Rem
        | BinaryOp::Shl
        | BinaryOp::Shr
        | BinaryOp::AShr => unreachable!("rejected by batch compilation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_expr;
    use crate::expr::Expr;
    use crate::ids::SignalId;
    use eraser_logic::{LogicBit, LogicVec};

    /// Deterministic four-state value generator.
    fn val(width: u32, seed: u64) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for k in 0..width {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = match s >> 61 {
                0 | 1 | 6 => LogicBit::Zero,
                2 | 3 | 7 => LogicBit::One,
                4 => LogicBit::X,
                _ => LogicBit::Z,
            };
            v.set_bit(k, bit);
        }
        v
    }

    /// The scalar oracle: evaluates the node's expression-tree equivalent
    /// per lane on the tree walker, with the engine's forced-output-width
    /// resize.
    fn oracle(node: &RtlNode, lane_vals: &[Vec<LogicVec>], out_width: u32) -> Vec<LogicVec> {
        let expr = match &node.op {
            RtlOp::Buf => Expr::sig(SignalId(0)),
            RtlOp::Unary(u) => Expr::Unary(*u, Box::new(Expr::sig(SignalId(0)))),
            RtlOp::Binary(b) => Expr::bin(*b, Expr::sig(SignalId(0)), Expr::sig(SignalId(1))),
            RtlOp::Mux => Expr::Ternary {
                cond: Box::new(Expr::sig(SignalId(0))),
                then_e: Box::new(Expr::sig(SignalId(1))),
                else_e: Box::new(Expr::sig(SignalId(2))),
            },
            RtlOp::Concat => Expr::Concat(
                (0..node.inputs.len())
                    .map(|i| Expr::sig(SignalId(i as u32)))
                    .collect(),
            ),
            RtlOp::Replicate(n) => Expr::Replicate(*n, Box::new(Expr::sig(SignalId(0)))),
            RtlOp::Slice { hi, lo } => Expr::Slice {
                base: SignalId(0),
                hi: *hi,
                lo: *lo,
            },
            op => panic!("no oracle for {op:?}"),
        };
        lane_vals
            .iter()
            .map(|vals| {
                let mut o = eval_expr(&expr, &vals[..]);
                o.resize_assign(out_width);
                o
            })
            .collect()
    }

    /// Packs 64 lanes of generated inputs, runs the batch kernel, and
    /// checks every extracted lane against the scalar oracle.
    fn check(op: RtlOp, in_widths: &[u32], out_width: u32, seed: u64) {
        let node = RtlNode {
            op,
            inputs: (0..in_widths.len() as u32).map(SignalId).collect(),
            output: SignalId(in_widths.len() as u32),
        };
        let widths: Vec<u32> = in_widths.to_vec();
        let sig_width = move |s: SignalId| {
            if (s.0 as usize) < widths.len() {
                widths[s.0 as usize]
            } else {
                out_width
            }
        };
        let tape = compile_node(&node, &sig_width).expect("node must be batchable");

        let lane_vals: Vec<Vec<LogicVec>> = (0..64)
            .map(|lane| {
                in_widths
                    .iter()
                    .enumerate()
                    .map(|(k, &w)| val(w, seed ^ (lane as u64) << 8 ^ (k as u64) << 16))
                    .collect()
            })
            .collect();
        let planes: Vec<LanePlanes> = in_widths
            .iter()
            .enumerate()
            .map(|(k, _)| {
                let mut p = LanePlanes::new();
                p.broadcast(&lane_vals[0][k]);
                for (lane, vals) in lane_vals.iter().enumerate() {
                    p.set_lane(lane as u32, &vals[k]);
                }
                p
            })
            .collect();
        let mut out = LanePlanes::new();
        run_batch(&tape, &planes, &mut out);

        let expect = oracle(&node, &lane_vals, out_width);
        let mut got = LogicVec::default();
        for (lane, want) in expect.iter().enumerate() {
            out.extract_lane(lane as u32, &mut got);
            assert_eq!(
                &got, want,
                "{:?} in_widths {in_widths:?} out {out_width} lane {lane}: \
                 batch diverged from scalar oracle",
                node.op
            );
        }
    }

    #[test]
    fn bitwise_binary_matches_oracle() {
        for op in [BinaryOp::And, BinaryOp::Or, BinaryOp::Xor, BinaryOp::Xnor] {
            check(RtlOp::Binary(op), &[13, 13], 13, 7);
            check(RtlOp::Binary(op), &[5, 9], 9, 11); // zero-extension
            check(RtlOp::Binary(op), &[64, 64], 64, 13);
        }
    }

    #[test]
    fn arithmetic_matches_oracle_including_truncation() {
        for op in [BinaryOp::Add, BinaryOp::Sub] {
            check(RtlOp::Binary(op), &[16, 16], 16, 3);
            check(RtlOp::Binary(op), &[12, 8], 12, 5); // mixed widths
            check(RtlOp::Binary(op), &[16, 16], 9, 5); // truncated output
            check(RtlOp::Binary(op), &[64, 64], 64, 9);
        }
    }

    #[test]
    fn comparisons_match_oracle() {
        for op in [
            BinaryOp::Eq,
            BinaryOp::Ne,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::CaseEq,
            BinaryOp::CaseNe,
        ] {
            check(RtlOp::Binary(op), &[11, 11], 1, 17);
            check(RtlOp::Binary(op), &[7, 12], 1, 19); // zero-extension
            check(RtlOp::Binary(op), &[4, 4], 1, 23); // narrow: frequent equals
        }
    }

    #[test]
    fn logical_connectives_match_oracle() {
        for op in [BinaryOp::LogicalAnd, BinaryOp::LogicalOr] {
            check(RtlOp::Binary(op), &[6, 3], 1, 29);
            check(RtlOp::Binary(op), &[1, 1], 1, 31);
        }
    }

    #[test]
    fn unary_matches_oracle() {
        for op in [
            UnaryOp::Not,
            UnaryOp::Neg,
            UnaryOp::LogicalNot,
            UnaryOp::RedAnd,
            UnaryOp::RedOr,
            UnaryOp::RedXor,
        ] {
            let ow = match op {
                UnaryOp::Not | UnaryOp::Neg => 10,
                _ => 1,
            };
            check(RtlOp::Unary(op), &[10], ow, 37);
            let ow = match op {
                UnaryOp::Not | UnaryOp::Neg => 64,
                _ => 1,
            };
            check(RtlOp::Unary(op), &[64], ow, 41);
        }
    }

    #[test]
    fn structural_ops_match_oracle() {
        check(RtlOp::Buf, &[24], 24, 43);
        check(RtlOp::Mux, &[1, 8, 8], 8, 47);
        check(RtlOp::Mux, &[3, 6, 9], 9, 53); // wide cond, mixed widths
        check(RtlOp::Concat, &[5, 3, 8], 16, 59);
        check(RtlOp::Replicate(3), &[5], 15, 61);
        check(RtlOp::Slice { hi: 9, lo: 2 }, &[16], 8, 67);
        check(RtlOp::Slice { hi: 20, lo: 12 }, &[16], 9, 71); // out of range -> X
    }

    #[test]
    fn unbatchable_nodes_compile_to_none() {
        let w = |_: SignalId| 8u32;
        let node = |op: RtlOp, n: u32| RtlNode {
            op,
            inputs: (0..n).map(SignalId).collect(),
            output: SignalId(n),
        };
        for op in [
            RtlOp::Binary(BinaryOp::Mul),
            RtlOp::Binary(BinaryOp::Div),
            RtlOp::Binary(BinaryOp::Rem),
            RtlOp::Binary(BinaryOp::Shl),
            RtlOp::Binary(BinaryOp::Shr),
            RtlOp::Binary(BinaryOp::AShr),
        ] {
            assert!(compile_node(&node(op, 2), &w).is_none());
        }
        assert!(compile_node(&node(RtlOp::Index, 2), &w).is_none());
        assert!(compile_node(&node(RtlOp::IndexedPart { width: 4 }, 2), &w).is_none());
        assert!(compile_node(&node(RtlOp::Const(LogicVec::zeros(8)), 0), &w).is_none());
        // Wide signals stay scalar.
        let wide = |_: SignalId| 128u32;
        assert!(compile_node(&node(RtlOp::Binary(BinaryOp::And), 2), &wide).is_none());
        // Batchable shape for contrast.
        assert!(compile_node(&node(RtlOp::Binary(BinaryOp::And), 2), &w).is_some());
    }
}
