//! Fault model for RTL fault simulation.
//!
//! Implements the fault universe of the ERASER paper's evaluation: per-bit
//! **stuck-at faults on wires and regs**, with observation points at the
//! design's primary outputs. A fault is *detected* when, at an observation
//! step, the faulty value of any output differs (in defined bits) from the
//! good value.
//!
//! * [`Fault`], [`StuckAt`], [`FaultId`] — one stuck-at fault site,
//! * [`FaultList`] and [`generate_faults`] — fault universe construction
//!   with the usual exclusions (clocks/resets, synthetic nets) and optional
//!   deterministic sampling,
//! * [`FaultShard`] and [`FaultList::partition`] — disjoint,
//!   self-contained slices of a universe and the site-affinity cut that
//!   makes them,
//! * [`BatchPlan`] — static site-major `(batch, lane)` assignment for
//!   64-wide bit-parallel (PPSFP-style) evaluation,
//! * [`CollapsedFaultList`] — static fault collapsing: equivalence classes
//!   over alias chains plus provably-undetectable drops
//!   (unobservable sites, unread bits), computed before any
//!   simulation; a detected representative marks every class member via
//!   [`CoverageReport::lift_classes`],
//! * [`ActivationWindows`] — per-fault activation-window analysis over an
//!   instrumented good replay: the earliest step each fault can first
//!   diverge, the restart-eligibility rule for checkpointed campaigns,
//!   and the activation-ordered fault schedule,
//! * [`WindowPlan`] — the campaign plan, the one place that decides which
//!   faults share an engine and where it starts: as many [`WindowShard`]
//!   groups as the caller has workers, from step 0, or cut in
//!   activation-window order with each group resumed at the latest
//!   good-state checkpoint eligible for all its members (a pure function
//!   of its inputs, so merged results repeat exactly),
//! * [`CoverageReport`] — detection bookkeeping and the coverage metric
//!   reported in Table II of the paper; shard reports fold into it through
//!   [`FaultShard::merge_coverage_into`].

mod activation;
mod batch;
mod collapse;
mod coverage;
mod list;
mod partition;
mod window;

pub use activation::ActivationWindows;
pub use batch::BatchPlan;
pub use collapse::CollapsedFaultList;
pub use coverage::{CoverageReport, Detection};
pub use list::{generate_faults, FaultList, FaultListConfig};
pub use partition::FaultShard;
pub use window::{WindowPlan, WindowShard};

use eraser_ir::SignalId;
use eraser_logic::{LogicBit, LogicVec};
use std::fmt;

/// True if `good` and `faulty` differ in a bit where **both** are defined —
/// the observable-detection criterion used at observation points.
///
/// A difference involving `X`/`Z` on either side is *not* counted: a tester
/// comparing against an unknown expected value cannot claim detection. All
/// engines in this workspace share this predicate, which is what makes
/// their coverage numbers comparable.
pub fn detectable_mismatch(good: &LogicVec, faulty: &LogicVec) -> bool {
    // Compare on zero-padded words (the word-level view of zero-extension
    // to the common width) — no intermediate vectors, no allocation.
    let pad = |words: &[u64], i: usize| words.get(i).copied().unwrap_or(0);
    let n = (good.width().max(faulty.width()) as usize).div_ceil(64);
    let (ga, gb) = (good.avals(), good.bvals());
    let (fa, fb) = (faulty.avals(), faulty.bvals());
    for i in 0..n {
        let defined = !pad(gb, i) & !pad(fb, i);
        if (pad(ga, i) ^ pad(fa, i)) & defined != 0 {
            return true;
        }
    }
    false
}

/// Identifies a fault within a [`FaultList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(pub u32);

impl FaultId {
    /// The raw index into the fault list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Stuck-at polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckAt {
    /// Stuck-at-0.
    Zero,
    /// Stuck-at-1.
    One,
}

impl StuckAt {
    /// The forced bit value.
    #[inline]
    pub fn bit(self) -> LogicBit {
        match self {
            StuckAt::Zero => LogicBit::Zero,
            StuckAt::One => LogicBit::One,
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckAt::Zero => write!(f, "sa0"),
            StuckAt::One => write!(f, "sa1"),
        }
    }
}

/// One stuck-at fault: a bit of a signal permanently forced to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Fault id (index in its list).
    pub id: FaultId,
    /// Faulted signal.
    pub signal: SignalId,
    /// Faulted bit position.
    pub bit: u32,
    /// Polarity.
    pub stuck: StuckAt,
}

impl Fault {
    /// Applies the force to a would-be value of the fault site: the faulty
    /// network always observes `value` with the stuck bit overridden.
    pub fn apply(&self, value: &LogicVec) -> LogicVec {
        let mut out = value.clone();
        self.apply_assign(&mut out);
        out
    }

    /// Applies the force onto `value` in place — the allocation-free form
    /// of [`Fault::apply`].
    #[inline]
    pub fn apply_assign(&self, value: &mut LogicVec) {
        if self.bit < value.width() {
            value.set_bit(self.bit, self.stuck.bit());
        }
    }

    /// True if forcing `value` would actually change it (the fault is
    /// *visible* at its site for this good value).
    pub fn changes(&self, value: &LogicVec) -> bool {
        self.bit < value.width() && value.bit(self.bit) != self.stuck.bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_requires_defined_bits() {
        let g = LogicVec::from_u64(4, 0b1010);
        let f = LogicVec::from_u64(4, 0b1000);
        assert!(detectable_mismatch(&g, &f));
        assert!(!detectable_mismatch(&g, &g));
        // X on either side masks the difference.
        let mut fx = f.clone();
        fx.set_bit(1, LogicBit::X);
        assert!(!detectable_mismatch(&g, &fx));
        let mut gx = g.clone();
        gx.set_bit(1, LogicBit::X);
        assert!(!detectable_mismatch(&gx, &f));
        // But a defined difference elsewhere still detects.
        let f2 = LogicVec::from_u64(4, 0b0010);
        assert!(detectable_mismatch(&gx, &f2));
    }

    #[test]
    fn apply_forces_single_bit() {
        let f = Fault {
            id: FaultId(0),
            signal: SignalId(0),
            bit: 2,
            stuck: StuckAt::One,
        };
        let v = LogicVec::from_u64(8, 0x00);
        assert_eq!(f.apply(&v).to_u64(), Some(0x04));
        assert!(f.changes(&v));
        let v = LogicVec::from_u64(8, 0x04);
        assert_eq!(f.apply(&v).to_u64(), Some(0x04));
        assert!(!f.changes(&v));
    }

    #[test]
    fn apply_forces_x_to_defined() {
        let f = Fault {
            id: FaultId(1),
            signal: SignalId(0),
            bit: 0,
            stuck: StuckAt::Zero,
        };
        let v = LogicVec::new_x(4);
        let forced = f.apply(&v);
        assert_eq!(forced.bit(0), LogicBit::Zero);
        assert_eq!(forced.bit(1), LogicBit::X);
        assert!(f.changes(&v));
    }

    #[test]
    fn out_of_range_bit_is_inert() {
        let f = Fault {
            id: FaultId(2),
            signal: SignalId(0),
            bit: 9,
            stuck: StuckAt::One,
        };
        let v = LogicVec::from_u64(4, 0);
        assert_eq!(f.apply(&v), v);
        assert!(!f.changes(&v));
    }
}
