//! The bit-parallel fault-batching knob.
//!
//! Batching packs up to [`eraser_logic::LANES`] faults of one engine into
//! the lanes of word-wide value planes ([`eraser_logic::LanePlanes`]) and
//! evaluates batchable RTL nodes for all of them in one bit-sliced pass
//! (PPSFP applied to the RTL plane — see [`eraser_ir::batch`]). It is a
//! pure evaluation-strategy change: coverage and every semantic
//! [`RedundancyStats`](crate::RedundancyStats) counter stay bit-identical
//! to the scalar path, which the differential tests enforce.

/// Whether engines evaluate RTL fault candidates in 64-wide batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchConfig {
    /// True to enable the bit-parallel RTL batch path.
    pub enabled: bool,
}

impl BatchConfig {
    /// Batching off — the scalar concurrent evaluation path.
    pub fn disabled() -> Self {
        BatchConfig { enabled: false }
    }

    /// Batching on.
    pub fn enabled() -> Self {
        BatchConfig { enabled: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert_eq!(BatchConfig::default(), BatchConfig::disabled());
    }
}
