//! Verilog-subset frontend: lexer, parser and hierarchical elaborator.
//!
//! This crate is the "compile & elaborate" step of the ERASER framework
//! (step ① of the paper's Fig. 4). It turns a Verilog source text into the
//! elaborated [`eraser_ir::Design`] RTL graph:
//!
//! * continuous `assign` expression trees are flattened into primitive
//!   [`eraser_ir::RtlNode`]s with synthetic intermediate nets,
//! * `always` blocks become [`eraser_ir::BehavioralNode`]s with their
//!   control-flow and visibility-dependency graphs attached,
//! * module hierarchy is flattened with dotted instance prefixes
//!   (`u_core.pc`).
//!
//! # Supported subset
//!
//! * **Modules:** ANSI-style headers (`input`/`output`, `wire`/`reg`,
//!   `[msb:lsb]` ranges) with an optional `#(parameter ...)` list, and
//!   instantiation with named port connections and `#(.P(v))` parameter
//!   overrides. The hierarchy is flattened.
//! * **Declarations:** `wire`/`reg` (one name may take an initializer,
//!   `wire [3:0] w = e;`, which is a continuous assign), `integer`, and
//!   `parameter`/`localparam` constant expressions.
//! * **Processes:** `assign`, and `always @(...)` with `posedge`/`negedge`
//!   or level sensitivity lists (`or` or `,` separated, or `@(*)`).
//!   Bodies use `begin`/`end`, `if`/`else`, `case`/`casez` with
//!   `default`, `for`, and blocking (`=`) or non-blocking (`<=`)
//!   assignments to whole signals, bits (constant or dynamic index),
//!   constant slices and `+:` part selects.
//! * **Expressions:** sized and unsized literals with `x`/`z` digits,
//!   the unary, reduction, arithmetic, shift, relational, equality
//!   (`==`, `===`), bitwise and logical operators, `?:`, bit and part
//!   selects, concatenation and replication.
//!
//! Not supported, and rejected with a line-numbered [`CompileError`]:
//! `initial` blocks (drive reset from the stimulus), memories (unpacked
//! arrays), `-:` part selects, functions and tasks, `generate`, and
//! system tasks.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     module counter(input wire clk, input wire rst, output reg [7:0] q);
//!         always @(posedge clk) begin
//!             if (rst) q <= 8'h00;
//!             else q <= q + 8'h01;
//!         end
//!     endmodule
//! "#;
//! let design = eraser_frontend::compile(src, Some("counter"))?;
//! assert_eq!(design.behavioral_nodes().len(), 1);
//! # Ok::<(), eraser_frontend::CompileError>(())
//! ```

mod ast;
mod elab;
mod error;
mod lexer;
mod parser;

pub use error::CompileError;

use eraser_ir::Design;

/// Compiles Verilog source text into an elaborated design.
///
/// `top` selects the top module; if `None`, the last module in the source is
/// used. Ports of the top module become the design's primary inputs and
/// outputs (the fault-observation points).
///
/// # Errors
///
/// Returns a [`CompileError`] with a line number for lexical, syntactic,
/// elaboration-time (unknown module/signal, non-constant where a constant is
/// required) and design-rule (multiple drivers, combinational cycle) errors.
pub fn compile(source: &str, top: Option<&str>) -> Result<Design, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(tokens)?;
    elab::elaborate(&unit, top)
}
