//! Checkpointed good-state replay configuration.
//!
//! The temporal-redundancy knob of the framework: with a nonzero interval,
//! campaign drivers run the good machine once with an activation probe
//! attached, capture a [`SimSnapshot`](eraser_sim::SimSnapshot) of the
//! good state every `interval` settle steps, derive per-fault
//! [`ActivationWindows`](eraser_fault::ActivationWindows), and then start
//! simulation from the latest eligible checkpoint preceding each fault's
//! window — skipping the fault-free prefix that from-zero re-simulation
//! would otherwise replay, and skipping outright the faults whose window
//! lies beyond the stimulus. The remaining faults are cut, in window
//! order, into one [`WindowShard`](eraser_fault::WindowShard) per worker;
//! the concurrent campaign driver ([`run_campaign`](crate::run_campaign))
//! resumes one concurrent engine per group from the latest checkpoint
//! eligible for all its members, the serial IFsim/VFsim baselines restore
//! one simulator per fault at that fault's own latest eligible
//! checkpoint, and either way the groups drain the same
//! [`ParallelConfig`](crate::ParallelConfig) worker queue (see the
//! `schedule` module docs). Coverage records (first-detection steps and
//! outputs included) are bit-identical to the non-checkpointed run by
//! construction. The redundancy counters are a function of the plan —
//! groups = workers, so they move with the thread count and differ from a
//! checkpoint-off run, the trade `skipped_prefix_steps` quantifies — and
//! the plan has no timing input, so they repeat exactly from run to run.
//!
//! Configured via [`CampaignConfig::checkpoint`](crate::CampaignConfig)
//! (spec key `checkpoint_interval`, CLI `--checkpoint-interval`); the
//! default is disabled.

/// Checkpointing configuration: the good-state snapshot interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointConfig {
    /// Settle steps between good-state checkpoints; `0` disables
    /// checkpointing (every fault replays from step 0, the historical
    /// behavior).
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

    /// True if campaigns under this config take checkpoints.
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

impl std::fmt::Display for CheckpointConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_enabled() {
            write!(f, "every {} steps", self.interval)
        } else {
            write!(f, "off")
        }
    }
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
        assert_eq!(on.to_string(), "every 8 steps");
        assert_eq!(off.to_string(), "off");
    }
}
