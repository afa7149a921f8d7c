//! Evaluation of primitive RTL nodes.

use eraser_ir::{eval_binary_assign, Design, EvalScratch, RtlNode, RtlOp, UnaryOp, ValueSource};
use eraser_logic::{LogicBit, LogicVec};

/// Evaluates one RTL operator into `out`, reading operand `k` through
/// `input(k)` (of `n_inputs` total) and drawing temporaries from `scratch`.
///
/// The closure-based operand access lets callers feed borrowed values from
/// heterogeneous storage (a value store, a fault's diff overlay) without
/// materializing a slice — combined with the in-place `LogicVec` ops this
/// makes steady-state node evaluation allocation-free. Used by the good
/// simulator, the ERASER concurrent engine (for both good and per-fault
/// evaluation) and the compiled baseline — the single source of truth for
/// RTL node semantics.
pub fn eval_rtl_op_with<'a, F: Fn(usize) -> &'a LogicVec>(
    op: &RtlOp,
    input: &F,
    n_inputs: usize,
    out_width: u32,
    scratch: &mut EvalScratch,
    out: &mut LogicVec,
) {
    match op {
        RtlOp::Buf => out.assign_from(input(0)),
        RtlOp::Const(c) => out.assign_from(c),
        RtlOp::Unary(u) => {
            let a = input(0);
            match u {
                UnaryOp::Not => {
                    out.assign_from(a);
                    out.not_assign();
                }
                UnaryOp::Neg => {
                    out.assign_from(a);
                    out.neg_assign();
                }
                UnaryOp::LogicalNot => out.assign_bit(a.truth().not()),
                UnaryOp::RedAnd => out.assign_bit(a.red_and()),
                UnaryOp::RedOr => out.assign_bit(a.red_or()),
                UnaryOp::RedXor => out.assign_bit(a.red_xor()),
            }
        }
        RtlOp::Binary(b) => {
            out.assign_from(input(0));
            eval_binary_assign(*b, out, input(1), scratch);
        }
        RtlOp::Mux => match input(0).truth() {
            LogicBit::One => out.assign_from(input(1)),
            LogicBit::Zero => out.assign_from(input(2)),
            _ => {
                out.assign_from(input(1));
                out.merge_x_assign(input(2));
            }
        },
        RtlOp::Concat => {
            // Node inputs are MSB-first (source order).
            let total: u32 = (0..n_inputs).map(|k| input(k).width()).sum();
            out.make_zeros(total);
            let mut lo = 0;
            for k in (0..n_inputs).rev() {
                let p = input(k);
                out.assign_slice(lo, p);
                lo += p.width();
            }
        }
        RtlOp::Replicate(n) => {
            let v = input(0);
            out.make_zeros(v.width() * n);
            for k in 0..*n {
                out.assign_slice(k * v.width(), v);
            }
        }
        RtlOp::Slice { hi, lo } => input(0).slice_into(*hi, *lo, out),
        RtlOp::Index => match input(1).to_u64() {
            Some(i) if i <= u32::MAX as u64 => out.assign_bit(input(0).bit_or_x(i as u32)),
            _ => out.assign_bit(LogicBit::X),
        },
        RtlOp::IndexedPart { width } => match input(1).to_u64() {
            Some(s) if s + *width as u64 <= u32::MAX as u64 => {
                input(0).slice_into(s as u32 + width - 1, s as u32, out)
            }
            _ => out.make_x(*width),
        },
    }
    if out.width() != out_width {
        out.resize_assign(out_width);
    }
}

/// Evaluates one RTL operator on already-fetched input values, producing a
/// fresh value of `out_width` bits. Convenience wrapper over
/// [`eval_rtl_op_with`]; use that form on hot paths.
pub fn eval_rtl_op(op: &RtlOp, inputs: &[LogicVec], out_width: u32) -> LogicVec {
    let mut scratch = EvalScratch::new();
    let mut out = LogicVec::default();
    eval_rtl_op_with(
        op,
        &|k| &inputs[k],
        inputs.len(),
        out_width,
        &mut scratch,
        &mut out,
    );
    out
}

/// Evaluates an RTL node into `out`, fetching its inputs from `src` by
/// borrow.
pub fn eval_rtl_node_into<S: ValueSource + ?Sized>(
    design: &Design,
    node: &RtlNode,
    src: &S,
    scratch: &mut EvalScratch,
    out: &mut LogicVec,
) {
    eval_rtl_op_with(
        &node.op,
        &|k| src.value(node.inputs[k]),
        node.inputs.len(),
        design.signal(node.output).width,
        scratch,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_ir::BinaryOp;

    fn v(w: u32, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn buf_resizes() {
        assert_eq!(
            eval_rtl_op(&RtlOp::Buf, &[v(4, 0xf)], 8).to_u64(),
            Some(0xf)
        );
        assert_eq!(
            eval_rtl_op(&RtlOp::Buf, &[v(8, 0xff)], 4).to_u64(),
            Some(0xf)
        );
    }

    #[test]
    fn mux_with_unknown_cond_merges() {
        let out = eval_rtl_op(
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
        let out = eval_rtl_op(&RtlOp::Concat, &[v(4, 0xa), v(4, 0x5)], 8);
        assert_eq!(out.to_u64(), Some(0xa5));
    }

    #[test]
    fn index_unknown_is_x() {
        let out = eval_rtl_op(&RtlOp::Index, &[v(8, 0xff), LogicVec::new_x(3)], 1);
        assert_eq!(out.bit(0), LogicBit::X);
        let out = eval_rtl_op(&RtlOp::Index, &[v(8, 0x04), v(4, 2)], 1);
        assert_eq!(out.to_u64(), Some(1));
    }

    #[test]
    fn binary_through_shared_eval() {
        let out = eval_rtl_op(&RtlOp::Binary(BinaryOp::Add), &[v(8, 250), v(8, 10)], 8);
        assert_eq!(out.to_u64(), Some(4));
    }

    #[test]
    fn into_reuses_output_buffer_across_shapes() {
        let mut scratch = EvalScratch::new();
        let mut out = LogicVec::default();
        let (a, b) = (v(4, 0xa), v(4, 0x5));
        eval_rtl_op_with(
            &RtlOp::Concat,
            &|k| [&a, &b][k],
            2,
            8,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.to_u64(), Some(0xa5));
        let (c, d) = (v(8, 9), v(8, 9));
        eval_rtl_op_with(
            &RtlOp::Binary(BinaryOp::Mul),
            &|k| [&c, &d][k],
            2,
            8,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.to_u64(), Some(81));
    }
}
