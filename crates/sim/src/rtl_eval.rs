//! Evaluation of primitive RTL nodes.

use eraser_ir::{ops, Design, RtlNode, RtlOp, ValueSource};
use eraser_logic::LogicVec;

/// Evaluates one RTL operator into `out`, reading operand `k` through
/// `input(k)` (of `n_inputs` total).
///
/// The closure-based operand access lets callers feed borrowed values from
/// heterogeneous storage (a value store, a fault's diff overlay) without
/// materializing a slice — combined with the in-place `LogicVec` ops this
/// makes steady-state node evaluation allocation-free. Used by the good
/// simulator and the ERASER concurrent engine (for both good and per-fault
/// evaluation); the operators themselves are [`eraser_ir::ops`], as in
/// every other evaluator.
pub fn eval_rtl_op_with<'a, F: Fn(usize) -> &'a LogicVec>(
    op: &RtlOp,
    input: &F,
    n_inputs: usize,
    out_width: u32,
    out: &mut LogicVec,
) {
    match op {
        RtlOp::Buf => out.assign_from(input(0)),
        RtlOp::Const(c) => out.assign_from(c),
        RtlOp::Unary(u) => ops::unary(*u, input(0), out),
        RtlOp::Binary(b) => ops::binary(*b, input(0), input(1), out),
        RtlOp::Mux => ops::mux(input(0).truth(), input(1), input(2), out),
        // Node inputs are MSB-first (source order).
        RtlOp::Concat => ops::concat((0..n_inputs).rev().map(input), out),
        RtlOp::Replicate(n) => ops::replicate(*n, input(0), out),
        RtlOp::Slice { hi, lo } => input(0).slice_into(*hi, *lo, out),
        RtlOp::Index => ops::index(input(0), input(1), out),
        RtlOp::IndexedPart { width } => ops::indexed_part(input(0), input(1), *width, out),
    }
    if out.width() != out_width {
        out.resize_assign(out_width);
    }
}

/// Evaluates an RTL node into `out`, fetching its inputs from `src` by
/// borrow.
pub fn eval_rtl_node_into<S: ValueSource + ?Sized>(
    design: &Design,
    node: &RtlNode,
    src: &S,
    out: &mut LogicVec,
) {
    eval_rtl_op_with(
        &node.op,
        &|k| src.value(node.inputs[k]),
        node.inputs.len(),
        design.width(node.output),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_ir::BinaryOp;
    use eraser_logic::LogicBit;

    fn v(w: u32, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    /// One operator on already-fetched input values, into a fresh output.
    fn eval_op(op: &RtlOp, inputs: &[LogicVec], out_width: u32) -> LogicVec {
        let mut out = LogicVec::default();
        eval_rtl_op_with(op, &|k| &inputs[k], inputs.len(), out_width, &mut out);
        out
    }

    #[test]
    fn buf_resizes() {
        assert_eq!(eval_op(&RtlOp::Buf, &[v(4, 0xf)], 8).to_u64(), Some(0xf));
        assert_eq!(eval_op(&RtlOp::Buf, &[v(8, 0xff)], 4).to_u64(), Some(0xf));
    }

    #[test]
    fn mux_with_unknown_cond_merges() {
        let out = eval_op(
            &RtlOp::Mux,
            &[LogicVec::new_x(1), v(4, 0b1100), v(4, 0b1010)],
            4,
        );
        assert_eq!(out.bit(3), LogicBit::One);
        assert_eq!(out.bit(0), LogicBit::Zero);
        assert_eq!(out.bit(1), LogicBit::X);
    }

    #[test]
    fn concat_msb_first_inputs() {
        // Source {a, b} with a=0xA (4b), b=0x5 (4b) -> 0xA5.
        let out = eval_op(&RtlOp::Concat, &[v(4, 0xa), v(4, 0x5)], 8);
        assert_eq!(out.to_u64(), Some(0xa5));
    }

    #[test]
    fn index_unknown_is_x() {
        let out = eval_op(&RtlOp::Index, &[v(8, 0xff), LogicVec::new_x(3)], 1);
        assert_eq!(out.bit(0), LogicBit::X);
        let out = eval_op(&RtlOp::Index, &[v(8, 0x04), v(4, 2)], 1);
        assert_eq!(out.to_u64(), Some(1));
    }

    #[test]
    fn binary_through_shared_eval() {
        let out = eval_op(&RtlOp::Binary(BinaryOp::Add), &[v(8, 250), v(8, 10)], 8);
        assert_eq!(out.to_u64(), Some(4));
    }

    #[test]
    fn into_reuses_output_buffer_across_shapes() {
        let mut out = LogicVec::default();
        let (a, b) = (v(4, 0xa), v(4, 0x5));
        eval_rtl_op_with(&RtlOp::Concat, &|k| [&a, &b][k], 2, 8, &mut out);
        assert_eq!(out.to_u64(), Some(0xa5));
        let (c, d) = (v(8, 9), v(8, 9));
        eval_rtl_op_with(
            &RtlOp::Binary(BinaryOp::Mul),
            &|k| [&c, &d][k],
            2,
            8,
            &mut out,
        );
        assert_eq!(out.to_u64(), Some(81));
    }
}
