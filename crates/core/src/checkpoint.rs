//! Checkpointed good-state replay configuration.
//!
//! The temporal-redundancy knob of the serial IFsim and VFsim baselines:
//! with a nonzero interval they run the good machine once with an
//! activation probe attached, capture a
//! [`SimSnapshot`](eraser_sim::SimSnapshot) of the good state every
//! `interval` settle steps, derive per-fault
//! [`ActivationWindows`](eraser_fault::ActivationWindows), skip outright
//! the faults whose window lies beyond the stimulus, and restore one
//! simulator per remaining fault at that fault's own latest eligible
//! checkpoint — skipping the fault-free prefix that from-zero
//! re-simulation would otherwise replay. Coverage records (first-detection
//! steps and outputs included) are bit-identical to the non-checkpointed
//! run by construction, and their counters are per-fault sums that no
//! thread count moves (see the `schedule` module docs).
//!
//! The concurrent engine reads no field of it. It simulates every fault
//! from step 0 against one good network, as the paper's ERASER does, so a
//! restart would save it nothing its group's good pass does not already
//! pay for: a concurrent campaign's coverage and counters are the same at
//! any interval.
//!
//! Configured via [`CampaignConfig::checkpoint`](crate::CampaignConfig)
//! (spec key `checkpoint_interval`); the default is disabled.

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

    /// True if a serial baseline campaign under this config takes
    /// checkpoints.
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
}
