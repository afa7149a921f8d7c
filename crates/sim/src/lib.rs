//! RTL simulation kernel and good (fault-free) simulator.
//!
//! This crate provides the execution machinery shared by every engine in the
//! ERASER framework:
//!
//! * [`ValueStore`] — dense per-signal four-state value storage,
//! * [`eval_rtl_node_into`] — the one evaluator of primitive RTL nodes,
//!   on every network and in every engine,
//! * [`Evaluator`] — the one handle every simulator evaluates its nodes
//!   through,
//! * [`execute_into`] — the behavioral interpreter, the one evaluator of
//!   behavioral code, which reports the
//!   **execution path** (path decisions taken and dependency segments
//!   visited) to an [`ExecMonitor`] — what the ERASER implicit-redundancy
//!   check walks,
//! * [`Simulator`] — the one settle loop: delta cycles, combinational
//!   settling under one of two rules (event-driven, or levelized full
//!   evaluation for the VFsim baseline), *deferred* edge detection (event
//!   nodes are evaluated only after the active region settles — the
//!   discipline whose concurrent-simulation analogue prevents the paper's
//!   "fake events"), and a non-blocking-assignment commit region; with a
//!   [`Hook`] attached it carries fault work at each of those points — the
//!   concurrent ERASER engine's good network is such a simulator,
//! * [`Stimulus`] — a cycle-stepped input waveform shared by all engines,
//!   its settle steps ([`Steps`]) stored in bounded chunks of changes with
//!   one index entry per step, so building one costs a few heap blocks
//!   rather than one or two per clock cycle,
//! * [`SimSnapshot`] — settle-point state capture/restore.
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
mod hook;
mod interp;
mod kernel;
mod rtl_eval;
mod snapshot;
mod stimulus;
mod store;
mod vcd;

pub use evaluator::Evaluator;
pub use hook::{Good, Hook, NoHook};
pub use interp::{
    execute_into, ExecCtx, ExecMonitor, ExecOutcome, NoopMonitor, OverlayView, SlotWrite,
};
pub use kernel::Simulator;
pub use rtl_eval::{eval_rtl_node_into, eval_rtl_op_with};
pub use snapshot::SimSnapshot;
pub use stimulus::{StepIter, Steps, Stimulus, StimulusBuilder};
pub use store::ValueStore;
pub use vcd::VcdWriter;
