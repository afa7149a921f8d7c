//! Settle-point simulator snapshots.
//!
//! A [`SimSnapshot`] captures the complete observable state of a simulator
//! at a *settle point* (after [`Simulator::step`](crate::Simulator::step)
//! returns): the full value store — which includes behavioral locals, since
//! locals are ordinary signals — the edge-detection latches, the active
//! force set and the delta and step counters. At a settle point every kernel
//! scheduling structure (RTL/behavioral work queues, the NBA queue, the
//! watch list) is provably empty, so the snapshot re-establishes the
//! quiescent scheduling state on restore instead of storing empty vectors;
//! [`Simulator::capture_into`](crate::Simulator) asserts this invariant.
//!
//! Snapshots are **reusable buffers**: capturing into an existing snapshot
//! of the same design overwrites the stored `LogicVec`s in place, so a
//! checkpointing campaign allocates once per checkpoint slot and then
//! recaptures/restores with zero steady-state heap traffic (on designs
//! whose signals fit the inline representation).
//!
//! Both settle rules of the simulator capture and restore the same state.
//! No engine restores a snapshot: every fault runs from step 0.
//! `eraser-core`'s `record_good_run` still captures one per checkpoint
//! boundary, and the benchmark times the round trip.

use eraser_ir::SignalId;
use eraser_logic::{LogicBit, LogicVec};

/// A captured settle-point state of a simulator. See the module docs of
/// `snapshot.rs` for the capture discipline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimSnapshot {
    /// Every signal's value, indexed by signal id (includes behavioral
    /// locals — they are ordinary signals in the store).
    pub values: Vec<LogicVec>,
    /// Edge-detection latches: the last settled value of every signal, as
    /// seen by deferred edge detection.
    pub edge_prev: Vec<LogicVec>,
    /// Active forces (`(signal, bit, value)`), re-applied on every write.
    pub forces: Vec<(SignalId, u32, LogicBit)>,
    /// Delta cycles executed up to the capture point.
    pub deltas: u64,
    /// Steps settled up to the capture point (the construction settle not
    /// counted).
    pub steps: usize,
}

impl SimSnapshot {
    /// Creates an empty snapshot (filled by the first capture).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Overwrites `dst` with `src` in place, reusing every existing `LogicVec`
/// allocation when the lengths match (the steady-state recapture path).
pub(crate) fn assign_logic_slice(dst: &mut Vec<LogicVec>, src: &[LogicVec]) {
    if dst.len() == src.len() {
        for (d, s) in dst.iter_mut().zip(src) {
            d.assign_from(s);
        }
    } else {
        dst.clear();
        dst.extend(src.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_reuses_matching_buffers() {
        let src = vec![LogicVec::from_u64(8, 3), LogicVec::from_u64(4, 1)];
        let mut dst = vec![LogicVec::from_u64(8, 9), LogicVec::from_u64(4, 0)];
        assign_logic_slice(&mut dst, &src);
        assert_eq!(dst, src);
        // Length mismatch rebuilds.
        let mut short = vec![LogicVec::from_u64(8, 9)];
        assign_logic_slice(&mut short, &src);
        assert_eq!(short, src);
    }

    #[test]
    fn empty_snapshot() {
        let s = SimSnapshot::new();
        assert!(s.is_empty());
        assert_eq!(s.deltas, 0);
    }
}
