//! Directed test: an indexed part select `x[s +: w]` whose start sits at
//! the top of its range reads all `X`, like every other out-of-range read.
//! A start within `w` of `2^64` must not overflow the end-of-selection
//! check; one within `w` of `u32::MAX` is past any signal either way.
//! Checked on a continuous-assign node and a behavioral read in the
//! simulator, and in the cloning oracle.

use eraser_frontend::compile;
use eraser_ir::{eval_expr_cloning, Expr, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::Simulator;

const W: u64 = 4;

/// Starts at the top of the range, then one in range (reading `x[7:4]`).
const STARTS: [u64; 5] = [
    u64::MAX,
    u64::MAX - 1,
    u32::MAX as u64 - W,
    u32::MAX as u64 - W + 1,
    4,
];

const X: u64 = 0xa5;

fn expected(start: u64) -> LogicVec {
    if start == 4 {
        LogicVec::from_u64(W as u32, X >> 4)
    } else {
        LogicVec::new_x(W as u32)
    }
}

#[test]
fn start_near_the_top_of_the_range_reads_x_in_the_simulator() {
    let design = compile(
        "module t(input wire [63:0] s, input wire [7:0] x,
                  output wire [3:0] y, output reg [3:0] z);
           assign y = x[s +: 4];
           always @(*) z = x[s +: 4];
         endmodule",
        None,
    )
    .unwrap();
    let sig = |name: &str| design.find_signal(name).unwrap();
    let mut sim = Simulator::new(&design);
    sim.set_input(sig("x"), &LogicVec::from_u64(8, X));
    for start in STARTS {
        sim.set_input(sig("s"), &LogicVec::from_u64(64, start));
        sim.step();
        for out in ["y", "z"] {
            assert_eq!(
                sim.value(sig(out)),
                &expected(start),
                "{out} at start {start:#x}"
            );
        }
    }
}

#[test]
fn start_near_the_top_of_the_range_reads_x_in_the_oracle() {
    let e = Expr::IndexedPart {
        base: SignalId(0),
        start: Box::new(Expr::sig(SignalId(1))),
        width: W as u32,
    };
    for start in STARTS {
        let vals = vec![LogicVec::from_u64(8, X), LogicVec::from_u64(64, start)];
        assert_eq!(
            eval_expr_cloning(&e, &vals),
            expected(start),
            "start {start:#x}"
        );
    }
}
