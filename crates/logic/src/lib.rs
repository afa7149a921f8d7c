//! Four-state logic values for RTL simulation.
//!
//! This crate provides the value system used by the ERASER RTL fault
//! simulation framework: arbitrary-width bit vectors where every bit is one
//! of `0`, `1`, `Z` (high impedance) or `X` (unknown), mirroring the IEEE
//! 1364 value set used by event-driven Verilog simulators.
//!
//! The two central types are:
//!
//! * [`LogicBit`] — a single four-state bit.
//! * [`LogicVec`] — an arbitrary-width vector of four-state bits with the
//!   full RTL operator set (bitwise, arithmetic, shifts, comparisons,
//!   reductions, concatenation, part selects).
//!
//! # Encoding
//!
//! Values are stored VPI-style in two bit planes per 64-bit word: an `aval`
//! plane and a `bval` plane. For a bit position, `(aval, bval)` encodes:
//!
//! | aval | bval | value |
//! |------|------|-------|
//! | 0    | 0    | `0`   |
//! | 1    | 0    | `1`   |
//! | 0    | 1    | `Z`   |
//! | 1    | 1    | `X`   |
//!
//! Bits at positions `>= width` are always `(0, 0)` — every operation
//! re-normalizes its result, so plane-equality is value-equality.
//!
//! # Storage and in-place operators
//!
//! A [`LogicVec`] keeps its two planes inline (one word pair) up to 64
//! bits and in a boxed slice beyond. Every hot operator has an in-place
//! form (`and_assign`, `add_assign`, `not_assign`, `shl_vec_assign`,
//! `merge_x_assign`, `assign_from`, `copy_resized`, `mul_into`, ...) that
//! writes its result into existing storage; the pure forms are thin
//! wrappers over them. Comparisons, slices and part writes are
//! word-parallel and never allocate. Together with borrowed signal reads
//! and the scratch arena of `eraser-ir`'s evaluator, this is what makes
//! steady-state simulation of a design whose signals fit in 64 bits
//! perform no heap allocation at all; wider values reuse their boxed
//! words whenever the word count matches. The operator *semantics* on
//! top of these primitives are written once, in `eraser_ir::ops`.
//!
//! # X-propagation
//!
//! Bitwise operators use the standard per-bit truth tables (`0 & X = 0`,
//! `1 | X = 1`, otherwise unknown in = unknown out; `Z` behaves as `X` when
//! read by an operator). Arithmetic operators are pessimistic: any `X`/`Z`
//! bit in an operand makes the whole result `X`, as in mainstream RTL
//! simulators.
//!
//! # Example
//!
//! ```
//! use eraser_logic::{LogicVec, LogicBit};
//!
//! let a = LogicVec::from_u64(8, 0x0f);
//! let b = LogicVec::parse_literal("8'b0000_10x0").unwrap();
//! let anded = a.and(&b);
//! assert_eq!(anded.bit(1), LogicBit::X);  // 1 & x = x
//! assert_eq!(anded.bit(3), LogicBit::One);
//! assert_eq!(anded.bit(4), LogicBit::Zero); // 0 & 1 = 0
//! ```

mod bit;
#[cfg(feature = "alloc-count")]
pub mod counting_alloc;
mod fmt;
mod ops;
mod parse;
mod plane;
mod vec;

pub use bit::LogicBit;
pub use parse::ParseLiteralError;
pub use plane::{LanePlanes, LANES};
pub use vec::LogicVec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<LogicVec>();
        assert_sync::<LogicVec>();
        assert_send::<LogicBit>();
        assert_sync::<LogicBit>();
    }
}
