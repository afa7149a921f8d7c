//! Baseline RTL fault simulators for the ERASER evaluation.
//!
//! Implements the three comparison engines of the paper's Fig. 6, as
//! documented substitutions (see `DESIGN.md`), all behind the
//! [`FaultSimEngine`] trait from `eraser-core`:
//!
//! * [`IFsim`] — per-fault serial *event-driven* re-simulation with the
//!   fault imposed through a `force`, the Icarus-Verilog-with-`force`
//!   baseline (the 1× reference of Fig. 6).
//! * [`VFsim`] — per-fault serial *levelized full evaluation*: every
//!   combinational node is evaluated every settle step in a precomputed
//!   topological order, with no event scheduling — the performance
//!   character of Verilator-based fault simulation (cheap, constant work
//!   per cycle; total cost ∝ faults × whole design).
//! * [`CfSim`] — the Z01X proxy: concurrent (batched) fault simulation
//!   with *explicit* behavioral redundancy elimination only, i.e. the
//!   ERASER engine pinned to
//!   [`RedundancyMode::Explicit`](eraser_core::RedundancyMode).
//!
//! [`all_engines`] returns the full Fig. 6 engine line-up (the three
//! baselines plus full ERASER) as trait objects, so benchmark harnesses,
//! parity tests and examples enumerate engines instead of hand-calling
//! each one:
//!
//! ```
//! use eraser_baselines::all_engines;
//! use eraser_core::CampaignRunner;
//! use eraser_fault::{generate_faults, FaultListConfig};
//! use eraser_frontend::compile;
//! use eraser_logic::LogicVec;
//! use eraser_sim::StimulusBuilder;
//!
//! let design = compile(
//!     "module dut(input wire clk, input wire [3:0] a, output reg [3:0] q);
//!        always @(posedge clk) q <= q + a;
//!      endmodule",
//!     None,
//! )?;
//! let faults = generate_faults(&design, &FaultListConfig::default());
//! let clk = design.find_signal("clk").unwrap();
//! let a = design.find_signal("a").unwrap();
//! let mut sb = StimulusBuilder::new();
//! for i in 0..20 {
//!     sb.add_cycle(clk, &[(a, LogicVec::from_u64(4, i * 7 % 16))]);
//! }
//! let stim = sb.finish();
//! let runner = CampaignRunner::new(&design, &faults, &stim);
//! let results = runner.run_all(&all_engines());
//! CampaignRunner::check_parity(&results)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! All engines share the detection predicate
//! ([`eraser_fault::detectable_mismatch`]), observation points (primary
//! outputs, checked after every stimulus step) and fault-dropping
//! semantics, so their coverage must agree bit-for-bit — the Table II
//! parity criterion.

mod compiled;
mod serial;

pub use compiled::CompiledSim;
pub use eraser_core::{EngineResult, Eraser, FaultSimEngine};

use eraser_core::{CampaignConfig, TapeProgram};
use eraser_fault::FaultList;
use eraser_ir::Design;
use eraser_sim::{Evaluator, ReplaySim, Simulator, Stimulus};

/// The per-campaign tape compilation a serial baseline shares across its
/// per-fault simulator instances: lowering happens once, not once per
/// fault.
fn campaign_tapes(design: &Design, config: &CampaignConfig) -> Option<TapeProgram> {
    TapeProgram::for_backend(design, config.backend)
}

/// IFsim: one event-driven re-simulation per fault, with the stuck-at
/// imposed as a force; outputs are compared against a recorded good trace
/// after every stimulus step, stopping at first detection.
///
/// As a serial engine it always drops a fault at first detection (coverage
/// is insensitive to dropping). Honors [`CampaignConfig::backend`]: on the
/// tape backend the design is lowered once and every per-fault simulator
/// replays the shared program. Honors [`CampaignConfig::checkpoint`]:
/// with checkpointing enabled the good run is snapshotted periodically,
/// each fault starts from the latest checkpoint preceding its activation
/// window (bit-identical coverage, see
/// [`eraser_fault::ActivationWindows`]), and the result carries
/// [`RedundancyStats`](eraser_core::RedundancyStats) with the
/// skipped-prefix / skipped-fault / dropped-fault counters. Honors
/// [`CampaignConfig::parallel`]: the fault groups of the campaign's plan
/// drain the shared work queue, with coverage and counters bit-identical
/// at every thread count. Honors [`CampaignConfig::collapse`]: only
/// representatives are re-simulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct IFsim;

impl FaultSimEngine for IFsim {
    fn name(&self) -> String {
        "IFsim".to_string()
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        let tapes = campaign_tapes(design, config);
        serial::serial_campaign(
            "IFsim",
            design,
            faults,
            stimulus,
            config,
            || Simulator::with_evaluator(Evaluator::shared(design, tapes.as_ref())),
            // Settle the force at injection so all engines agree on when a
            // forced power-on edge (X -> stuck value) fires relative to
            // the next stimulus step (ReplaySim::force_bit steps the sim).
            |sim, f| sim.force_bit(f.signal, f.bit, f.stuck.bit()),
        )
    }
}

/// VFsim: one levelized full-evaluation simulation per fault (no event
/// scheduling), same observation, dropping and checkpointing rules as
/// [`IFsim`]. Honors [`CampaignConfig::backend`] with one shared tape
/// compilation.
#[derive(Debug, Clone, Copy, Default)]
pub struct VFsim;

impl FaultSimEngine for VFsim {
    fn name(&self) -> String {
        "VFsim".to_string()
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        let tapes = campaign_tapes(design, config);
        serial::serial_campaign(
            "VFsim",
            design,
            faults,
            stimulus,
            config,
            || CompiledSim::with_evaluator(Evaluator::shared(design, tapes.as_ref())),
            |sim, f| sim.force_bit(f.signal, f.bit, f.stuck.bit()),
        )
    }
}

/// CfSim (Z01X proxy): the concurrent engine pinned to explicit-only
/// redundancy elimination. Honors every [`CampaignConfig`] field except
/// `mode`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CfSim;

impl FaultSimEngine for CfSim {
    fn name(&self) -> String {
        "CfSim".to_string()
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        let mut result = Eraser::explicit().run(design, faults, stimulus, config);
        result.name = self.name();
        result
    }
}

/// The full Fig. 6 engine line-up as trait objects, in the paper's column
/// order: IFsim (the 1× reference), VFsim, CfSim, and full ERASER.
pub fn all_engines() -> Vec<Box<dyn FaultSimEngine>> {
    vec![
        Box::new(IFsim),
        Box::new(VFsim),
        Box::new(CfSim),
        Box::new(Eraser::full()),
    ]
}
