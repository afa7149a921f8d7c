//! Settle-point simulator snapshots — the substrate of checkpointed
//! good-state replay.
//!
//! A [`SimSnapshot`] captures the complete observable state of a simulator
//! at a *settle point* (after [`Simulator::step`](crate::Simulator::step)
//! returns): the full value store — which includes behavioral locals, since
//! locals are ordinary signals — the edge-detection latches, the active
//! force set and the delta counter. At a settle point every kernel
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
//! [`ReplaySim`] is the engine-facing trait: both the event-driven
//! [`Simulator`](crate::Simulator) and the levelized `CompiledSim` in
//! `eraser-baselines` implement it, which is what lets one checkpointed
//! serial campaign scheduler drive either baseline.

use crate::probe::SiteProbe;
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
pub fn assign_logic_slice(dst: &mut Vec<LogicVec>, src: &[LogicVec]) {
    if dst.len() == src.len() {
        for (d, s) in dst.iter_mut().zip(src) {
            d.assign_from(s);
        }
    } else {
        dst.clear();
        dst.extend(src.iter().cloned());
    }
}

/// A fault-simulation replay substrate: a simulator that can be
/// checkpointed at settle points, restored, forced, instrumented with a
/// [`SiteProbe`] and stepped through a stimulus.
///
/// Implemented by the event-driven [`Simulator`](crate::Simulator) (the
/// IFsim substrate) and by `CompiledSim` in `eraser-baselines` (the VFsim
/// substrate), so the checkpointed serial campaign scheduler is written
/// once against this trait.
pub trait ReplaySim {
    /// Captures the current settle-point state into `snap`, reusing its
    /// buffers.
    ///
    /// # Panics
    ///
    /// May panic if the simulator is not at a settle point (pending queued
    /// work) — snapshots are defined at settle points only.
    fn capture_into(&self, snap: &mut SimSnapshot);

    /// Restores a previously captured state, discarding all current state
    /// (values, latches, forces, pending work).
    fn restore_from(&mut self, snap: &SimSnapshot);

    /// Applies one stimulus step's input changes and settles the design.
    fn replay_step(&mut self, changes: &[(SignalId, LogicVec)]);

    /// The current value of a signal, by borrow.
    fn signal_value(&self, sig: SignalId) -> &LogicVec;

    /// Permanently forces one bit of a signal (stuck-at injection) and
    /// settles the effect.
    fn force_bit(&mut self, sig: SignalId, bit: u32, value: LogicBit);

    /// Attaches an activation probe; the probe immediately observes the
    /// current state (its step-0 baseline), then every subsequent commit,
    /// decision and edge hazard until taken back.
    fn attach_probe(&mut self, probe: SiteProbe);

    /// Detaches and returns the probe, if one is attached.
    fn take_probe(&mut self) -> Option<SiteProbe>;

    /// Tells the attached probe (if any) which stimulus step subsequent
    /// observations belong to.
    fn begin_probe_step(&mut self, step: usize);

    /// True if every signal's current value is fully defined (no `X`/`Z`
    /// anywhere) — the eligibility condition for restarting
    /// refinement-dormant faults from this state.
    fn fully_defined(&self) -> bool;
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
