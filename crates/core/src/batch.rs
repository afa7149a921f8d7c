//! The bit-parallel fault-batching knob.
//!
//! Batching packs up to [`eraser_logic::LANES`] faults of one engine into
//! the lanes of word-wide value planes ([`eraser_logic::LanePlanes`]) and
//! evaluates batchable RTL nodes for all of them in one bit-sliced pass
//! (PPSFP applied to the RTL plane — see [`eraser_ir::batch`]). It is a
//! pure evaluation-strategy change: coverage and every semantic
//! [`RedundancyStats`](crate::RedundancyStats) counter stay bit-identical
//! to the scalar path, which the differential tests enforce.
//!
//! At each RTL node evaluation the engine packs the candidates densely
//! into 64-lane chunks in fault-id order, which is site order, so faults
//! that share a site (and its diff entries) share a chunk. Chunks too
//! small to pay for the transpose, and nodes without a batch kernel,
//! take the scalar path (`RedundancyStats::batch_scalar_fallbacks`).
//!
//! # Why word-level batching is near parity
//!
//! At the gate level PPSFP wins because a scalar word carries one useful
//! bit and a lane plane carries 64. Scalar RTL evaluation here is
//! already word-parallel across bit positions (a 32-bit add is one word
//! operation per fault), and a batch kernel does O(width) word operations
//! per 64 lanes, so bit-slicing buys no raw compute. What it amortizes is
//! per-fault overhead (dispatch and diff-list searches), so its effect
//! tracks lane occupancy rather than width: measured speedups were
//! 0.64–1.10x on the four Table II designs that form groups (SHA256_C2V,
//! at 98 % occupancy, broke even). Gate-level netlists of 1-bit cells are
//! where the lanes pay.

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
