//! Baseline RTL fault simulators for the ERASER evaluation.
//!
//! Implements the three comparison engines of the paper's Fig. 6, all
//! behind the [`FaultSimEngine`] trait from `eraser-core`. The paper
//! times external tools (Icarus Verilog with `force`, a Verilator-based
//! fault simulator and Synopsys Z01X); none of them is a dependency here,
//! so each is substituted by an engine on this workspace's own simulator
//! that keeps the tool's cost character. Speedups against them are
//! therefore ratios between algorithms on one kernel, not between
//! products:
//!
//! * [`IFsim`] — per-fault serial *event-driven* re-simulation with the
//!   fault imposed through a `force`, the Icarus-Verilog-with-`force`
//!   baseline (the 1× reference of Fig. 6).
//! * [`VFsim`] — per-fault serial *levelized full evaluation*: the same
//!   simulator under its levelized settle rule
//!   ([`Simulator::levelized`](eraser_sim::Simulator::levelized)), where
//!   every RTL node is dirty every delta, so one drain evaluates each
//!   once in a precomputed topological order whatever changed — the
//!   performance character of Verilator-based fault simulation (cheap,
//!   constant work per delta; total cost ∝ faults × whole design).
//! * [`CfSim`] — the Z01X proxy: concurrent (batched) fault simulation
//!   with *explicit* behavioral redundancy elimination only, i.e. the
//!   ERASER engine pinned to
//!   [`RedundancyMode::Explicit`](eraser_core::RedundancyMode).
//!
//! Every engine starts every fault at step 0, as the paper's IFsim does:
//! IFsim and VFsim build a fresh simulator per fault, and the concurrent
//! engines (CfSim and ERASER) run each group from step 0 against one good
//! network. No engine reads
//! [`CampaignConfig::checkpoint`](eraser_core::CampaignConfig::checkpoint).
//!
//! [`all_engines`] returns the full Fig. 6 engine line-up (the three
//! baselines plus full ERASER) as trait objects, so benchmark harnesses,
//! parity tests and examples enumerate engines instead of hand-calling
//! each one:
//!
//! ```
//! use eraser_baselines::all_engines;
//! use eraser_core::CampaignConfig;
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
//! let config = CampaignConfig::default();
//! let engines = all_engines();
//! let reference = engines[0].run(&design, &faults, &stim, &config).coverage;
//! for engine in &engines[1..] {
//!     let coverage = engine.run(&design, &faults, &stim, &config).coverage;
//!     assert!(reference.same_detected_set(&coverage), "{}", engine.name());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! All engines share the detection predicate
//! ([`eraser_fault::detectable_mismatch`]), observation points (primary
//! outputs, checked after every stimulus step) and fault-dropping
//! semantics, so their coverage must agree bit-for-bit — the Table II
//! parity criterion.

mod serial;

pub use eraser_core::{Eraser, FaultSimEngine};

use eraser_core::{CampaignConfig, CampaignResult};
use eraser_fault::FaultList;
use eraser_ir::Design;
use eraser_sim::{Simulator, Stimulus};

/// IFsim: one event-driven re-simulation per fault from step 0, with the
/// stuck-at imposed as a force on a fresh simulator; outputs are compared
/// against a recorded good trace after every stimulus step, stopping at
/// first detection.
///
/// As a serial engine it always drops a fault at first detection (coverage
/// is insensitive to dropping). Honors [`CampaignConfig::parallel`]: the
/// fault groups of the campaign's plan drain the shared work queue, with
/// coverage and counters bit-identical at every thread count. Honors
/// [`CampaignConfig::collapse`]: only representatives are re-simulated.
/// Reads no other field: `mode`, `drop_detected`, `backend`, `batch` and
/// `checkpoint` change nothing.
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
    ) -> CampaignResult {
        serial::serial_campaign(design, faults, stimulus, config, |eval| {
            Simulator::with_evaluator(eval)
        })
    }
}

/// VFsim: one levelized full-evaluation simulation per fault
/// ([`Simulator::levelized`]: every RTL node dirty every delta), otherwise exactly
/// [`IFsim`] — same observation, dropping, threading and collapsing rules,
/// and every fault from step 0.
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
    ) -> CampaignResult {
        serial::serial_campaign(design, faults, stimulus, config, |eval| {
            Simulator::levelized(eval)
        })
    }
}

/// CfSim (Z01X proxy): the concurrent engine pinned to explicit-only
/// redundancy elimination. Honors every [`CampaignConfig`] field except
/// `mode`, and, like every engine, reads no `backend` or `checkpoint` and
/// starts each fault at step 0.
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
    ) -> CampaignResult {
        Eraser::explicit().run(design, faults, stimulus, config)
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
