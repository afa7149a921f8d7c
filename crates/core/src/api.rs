//! The engine-agnostic campaign API.
//!
//! Every fault simulator in the workspace — the ERASER concurrent engine in
//! all three ablation modes, and the IFsim / VFsim / CfSim baselines in
//! `eraser-baselines` — is driven through one polymorphic surface,
//! [`FaultSimEngine`]: a name and a `run(design, faults, stimulus, config)`
//! entry point returning the one campaign result, [`CampaignResult`]
//! (coverage and redundancy counters).
//!
//! All engines share the same detection predicate
//! ([`eraser_fault::detectable_mismatch`]), observation points (primary
//! outputs after every stimulus step) and fault-dropping semantics, which
//! is what makes their results directly comparable: two engines agree —
//! the Table II criterion — when their reports pass
//! [`CoverageReport::same_detected_set`](eraser_fault::CoverageReport::same_detected_set).
//! New engines plug in by implementing the trait; no caller changes.

use crate::campaign::{run_campaign, CampaignConfig, CampaignResult};
use crate::RedundancyMode;
use eraser_fault::FaultList;
use eraser_ir::Design;
use eraser_sim::Stimulus;

/// An RTL fault-simulation engine.
///
/// Implementations must share the framework-wide campaign semantics:
/// replay `stimulus` step by step, compare every primary output against the
/// fault-free run after each settle step with
/// [`eraser_fault::detectable_mismatch`], and record the first detection of
/// each fault. Engines may ignore configuration fields that do not apply to
/// them (e.g. the serial baselines always drop detected faults — coverage
/// is insensitive to dropping by construction).
pub trait FaultSimEngine {
    /// Display name, stable across runs (used as the key in reports).
    fn name(&self) -> String;

    /// Runs one complete campaign.
    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> CampaignResult;
}

/// The ERASER concurrent engine as a [`FaultSimEngine`].
///
/// The `mode` field selects the paper's ablation variant and *overrides*
/// the mode in the per-run [`CampaignConfig`] (so a heterogeneous engine
/// list can run under one shared config); all other configuration fields
/// are honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Eraser {
    /// Which redundancy-elimination layers are active.
    pub mode: RedundancyMode,
}

impl Eraser {
    /// Full ERASER: explicit + implicit redundancy elimination.
    pub fn full() -> Self {
        Eraser {
            mode: RedundancyMode::Full,
        }
    }

    /// Eraser-: explicit elimination only.
    pub fn explicit() -> Self {
        Eraser {
            mode: RedundancyMode::Explicit,
        }
    }

    /// Eraser--: no redundancy elimination.
    pub fn none() -> Self {
        Eraser {
            mode: RedundancyMode::None,
        }
    }

    /// One engine per ablation mode, in Fig. 7 order
    /// (`Eraser--`, `Eraser-`, `Eraser`).
    pub fn ablation() -> Vec<Box<dyn FaultSimEngine>> {
        vec![
            Box::new(Eraser::none()),
            Box::new(Eraser::explicit()),
            Box::new(Eraser::full()),
        ]
    }
}

impl FaultSimEngine for Eraser {
    fn name(&self) -> String {
        self.mode.to_string()
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> CampaignResult {
        run_campaign(
            design,
            faults,
            stimulus,
            &CampaignConfig {
                mode: self.mode,
                ..config.clone()
            },
        )
    }
}
