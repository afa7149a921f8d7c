//! Intermediate representation of elaborated RTL designs.
//!
//! An elaborated design is the directed graph the ERASER paper calls the
//! *RTL graph* (Fig. 2): a set of [`Signal`]s connected by
//!
//! * **RTL nodes** ([`RtlNode`]) — primitive combinational operators
//!   produced by flattening continuous-assign expression trees, and
//! * **behavioral nodes** ([`BehavioralNode`]) — `always` blocks with a
//!   sensitivity list and a statement body.
//!
//! The crate also provides the static analyses the ERASER algorithm needs:
//!
//! * per-statement read/write sets ([`analysis`]),
//! * the control flow graph and **visibility dependency graph** of each
//!   behavioral body ([`vdg`]), whose *path decision* and *path dependency*
//!   nodes drive the implicit-redundancy check (Algorithm 1 of the paper),
//! * combinational levelization for compiled-style evaluation ([`analysis`]),
//! * the operator semantics, four-state and two-state, each written once
//!   ([`ops`]), and a generic expression evaluator over them ([`eval`]),
//! * the word-parallel batch plane over up to 64 fault machines
//!   ([`batch`]).
//!
//! [`tape`] keeps only the names of the retired compiled backend that the
//! benchmark still compiles against; no engine reads them.
//!
//! Designs are constructed through [`DesignBuilder`], either directly (see
//! the builder's example) or by the `eraser-frontend` Verilog compiler.

pub mod analysis;
pub mod batch;
pub mod design;
pub mod eval;
pub mod expr;
pub mod ids;
pub mod node;
pub mod ops;
pub mod stmt;
pub mod tape;
pub mod vdg;

pub use batch::{run_batch, BatchProgram, BatchTape};
pub use design::{
    BuildError, CombItem, Design, DesignBuilder, Driver, PortDir, Signal, SignalKind,
};
pub use eval::{eval_expr, eval_expr_cloning, eval_expr_into, EvalScratch, ValueSource};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use ids::{BehavioralId, DecisionId, RtlNodeId, SegmentId, SignalId};
pub use node::{BehavioralNode, EdgeKind, RtlNode, RtlOp, Sensitivity};
pub use stmt::{CaseArm, CaseKind, LValue, Stmt};
pub use tape::{EvalBackend, TapeProgram};
pub use vdg::{DecisionEval, DecisionInfo, SegmentInfo, Vdg, VdgNode};
