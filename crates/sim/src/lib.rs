//! Event-driven RTL simulation kernel and good (fault-free) simulator.
//!
//! This crate provides the execution machinery shared by every engine in the
//! ERASER framework:
//!
//! * [`ValueStore`] — dense per-signal four-state value storage,
//! * [`eval_rtl_op`] — evaluation of primitive RTL nodes,
//! * [`Evaluator`] — the one handle every simulator evaluates its nodes
//!   through: a design plus the backend (tree walker or compiled tapes),
//! * [`execute_behavioral`] — the behavioral interpreter, which can record
//!   the **execution trace** (path decisions taken and dependency segments
//!   visited) that the ERASER implicit-redundancy check walks,
//! * [`Simulator`] — the event-driven good simulator: delta cycles,
//!   combinational propagation, *deferred* edge detection (event nodes are
//!   evaluated only after the active region settles — the discipline whose
//!   concurrent-simulation analogue prevents the paper's "fake events"),
//!   and a non-blocking-assignment commit region,
//! * [`Stimulus`] — a cycle-stepped input waveform shared by all engines,
//! * [`SimSnapshot`] / [`ReplaySim`] — settle-point state capture/restore
//!   for checkpointed good-state replay, and [`SiteProbe`] — the
//!   commit-granular activation/hazard recorder behind fault
//!   activation-window analysis.
//!
//! # Example
//!
//! ```
//! use eraser_frontend::compile;
//! use eraser_logic::LogicVec;
//! use eraser_sim::Simulator;
//!
//! let design = compile(
//!     "module counter(input wire clk, input wire rst, output reg [7:0] q);
//!        always @(posedge clk) begin
//!          if (rst) q <= 8'h00; else q <= q + 8'h01;
//!        end
//!      endmodule",
//!     None,
//! )?;
//! let clk = design.find_signal("clk").unwrap();
//! let rst = design.find_signal("rst").unwrap();
//! let q = design.find_signal("q").unwrap();
//! let mut sim = Simulator::new(&design);
//! sim.set_input(rst, &LogicVec::from_u64(1, 1));
//! sim.clock_cycle(clk);
//! sim.set_input(rst, &LogicVec::from_u64(1, 0));
//! for _ in 0..5 {
//!     sim.clock_cycle(clk);
//! }
//! assert_eq!(sim.value(q).to_u64(), Some(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod evaluator;
mod interp;
mod kernel;
mod probe;
mod rtl_eval;
mod snapshot;
mod stimulus;
mod store;
mod vcd;

pub use evaluator::Evaluator;
pub use interp::{
    execute_behavioral, execute_into, execute_monitored, execute_tape_into, ExecCtx, ExecMonitor,
    ExecOutcome, ExecTrace, NoopMonitor, OverlayView, SlotWrite, TraceEvent, TraceMonitor,
};
pub use kernel::Simulator;
pub use probe::{BitFirsts, ProbeMonitor, SiteProbe, NEVER};
pub use rtl_eval::{eval_rtl_node_into, eval_rtl_op, eval_rtl_op_with};
pub use snapshot::{assign_logic_slice, ReplaySim, SimSnapshot};
pub use stimulus::{Stimulus, StimulusBuilder};
pub use store::ValueStore;
pub use vcd::VcdWriter;
