//! The checkpoint interval: a knob no engine reads.
//!
//! Every engine starts every fault at step 0 — the concurrent ERASER
//! engine against one good network, and the serial IFsim and VFsim
//! baselines one fresh simulator per fault, as the paper's IFsim (Icarus
//! Verilog with a `force` per fault) does. So a campaign's coverage and
//! counters are the same at any interval. The spec key
//! `checkpoint_interval` is still parsed and validated (its snapshot cap
//! included), so that existing specs, stored records, journals and the
//! benchmark under `benchmark/` keep working.
//!
//! The one reader of the interval is here too: [`record_good_run`], a
//! plain good replay that captures one [`SimSnapshot`] per boundary, which
//! the benchmark times as its `core.good_run` probe, and the
//! [`GoodRunArtifacts`] it returns, which
//! [`CampaignContext::good_run`](crate::CampaignContext) accepts and
//! ignores.

use crate::campaign::CampaignConfig;
use eraser_fault::FaultList;
use eraser_ir::{Design, TapeProgram};
use eraser_sim::{SimSnapshot, Simulator, Stimulus};

/// Checkpointing configuration: the good-state snapshot interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointConfig {
    /// Settle steps between the snapshots of [`record_good_run`]; `0`
    /// disables them. No engine reads it.
    pub interval: usize,
}

impl CheckpointConfig {
    /// Checkpointing disabled.
    pub fn disabled() -> Self {
        CheckpointConfig { interval: 0 }
    }

    /// A checkpoint every `interval` settle steps (`0` disables).
    pub fn every(interval: usize) -> Self {
        CheckpointConfig { interval }
    }

    /// True if the interval is nonzero.
    pub fn is_enabled(&self) -> bool {
        self.interval > 0
    }

    /// True if a checkpoint is captured before applying stimulus step
    /// `step` (step 0 — the construction-settled state — is always a
    /// boundary when enabled).
    pub fn is_boundary(&self, step: usize) -> bool {
        self.interval > 0 && step.is_multiple_of(self.interval)
    }
}

/// The good-state snapshots of one plain good replay, one per checkpoint
/// boundary: what [`record_good_run`] returns.
#[derive(Debug, Clone)]
pub struct GoodRunArtifacts {
    /// Per boundary, ascending: the good state captured before applying
    /// its step.
    snapshots: Vec<SimSnapshot>,
}

impl GoodRunArtifacts {
    /// How many boundary snapshots were captured.
    pub fn num_checkpoints(&self) -> usize {
        self.snapshots.len()
    }
}

/// Replays the whole stimulus on a fresh event-driven simulator and
/// captures a [`SimSnapshot`] of the good state before every boundary
/// step of `config.checkpoint`. `faults` and `tapes` are not read (the
/// retired [`TapeProgram`] holds nothing); they stay in the signature the
/// benchmark compiles against.
pub fn record_good_run(
    design: &Design,
    _faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    _tapes: Option<&TapeProgram>,
) -> GoodRunArtifacts {
    let mut sim = Simulator::new(design);
    let mut snapshots = Vec::new();
    for (si, step) in stimulus.steps.iter().enumerate() {
        if config.checkpoint.is_boundary(si) {
            let mut snap = SimSnapshot::new();
            sim.capture_into(&mut snap);
            snapshots.push(snap);
        }
        sim.replay_step(step);
    }
    GoodRunArtifacts { snapshots }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries() {
        let off = CheckpointConfig::default();
        assert_eq!(off, CheckpointConfig::disabled());
        assert!(!off.is_enabled());
        assert!(!off.is_boundary(0));
        let on = CheckpointConfig::every(8);
        assert!(on.is_enabled());
        assert!(on.is_boundary(0));
        assert!(on.is_boundary(16));
        assert!(!on.is_boundary(4));
    }

    #[test]
    fn good_run_snapshots_every_boundary() {
        let design = eraser_frontend::compile(
            "module m(input wire clk, output reg [3:0] q);
               always @(posedge clk) q <= q + 4'h1;
             endmodule",
            None,
        )
        .unwrap();
        let clk = design.find_signal("clk").unwrap();
        let mut sb = eraser_sim::StimulusBuilder::new();
        for _ in 0..5 {
            sb.add_cycle(clk, &[]);
        }
        let stim = sb.finish();
        assert_eq!(stim.steps.len(), 10);
        let faults = FaultList::default();
        // Boundaries before steps 0, 4 and 8; none with the interval off.
        for (interval, snapshots) in [(0, 0), (1, 10), (4, 3), (64, 1)] {
            let config = CampaignConfig {
                checkpoint: CheckpointConfig::every(interval),
                ..CampaignConfig::default()
            };
            let good = record_good_run(&design, &faults, &stim, &config, None);
            assert_eq!(good.num_checkpoints(), snapshots, "interval {interval}");
        }
    }
}
