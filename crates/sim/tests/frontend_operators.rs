//! Directed tests of operator forms the frontend accepts, simulated: the
//! reduction XNOR in both spellings, replication of a list, and `>>>` on
//! the subset's unsigned operands (a zero fill, IEEE 1364-2005 §5.1.12).
//! Each runs under both evaluation backends.

use eraser_frontend::compile;
use eraser_ir::EvalBackend;
use eraser_logic::LogicVec;
use eraser_sim::Simulator;

/// Settles `src` (inputs `a`, output `y`) with `a` driven to `a`, and
/// returns `y` under each backend.
fn y_for(src: &str, a_width: u32, a: u64) -> Vec<LogicVec> {
    let design = compile(src, None).unwrap();
    let sig = |name: &str| design.find_signal(name).unwrap();
    [EvalBackend::Tree, EvalBackend::Tape]
        .into_iter()
        .map(|backend| {
            let mut sim = Simulator::with_backend(&design, backend);
            sim.set_input(sig("a"), &LogicVec::from_u64(a_width, a));
            sim.step();
            sim.value(sig("y")).clone()
        })
        .collect()
}

#[test]
fn reduction_xnor_is_the_complement_of_reduction_xor() {
    for op in ["~^", "^~"] {
        let src =
            format!("module m(input wire [3:0] a, output wire y); assign y = {op}a; endmodule");
        for (a, want) in [(0b0000, 1), (0b0001, 0), (0b0011, 1), (0b0111, 0)] {
            for y in y_for(&src, 4, a) {
                assert_eq!(y, LogicVec::from_u64(1, want), "{op}{a:04b}");
            }
        }
    }
}

#[test]
fn replication_of_a_list_repeats_the_concatenation() {
    let src = "module m(input wire a, output wire [3:0] y); assign y = {2{a, 1'b0}}; endmodule";
    for y in y_for(src, 1, 1) {
        assert_eq!(y, LogicVec::from_u64(4, 0b1010));
    }
    for y in y_for(src, 1, 0) {
        assert_eq!(y, LogicVec::from_u64(4, 0b0000));
    }
}

#[test]
fn arithmetic_shift_of_an_unsigned_operand_fills_zeros() {
    let src = "module m(input wire [7:0] a, output wire [7:0] y); assign y = a >>> 2; endmodule";
    for y in y_for(src, 8, 0x80) {
        assert_eq!(y, LogicVec::from_u64(8, 0x20));
    }
}
