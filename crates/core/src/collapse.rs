//! The static fault-collapsing knob.
//!
//! Collapsing builds a [`CollapsedFaultList`] over the design's static
//! structure *before any engine runs*: equivalence classes over
//! alias chains fold to one representative each, and provably
//! undetectable sites (no reader of the bit, no influence path to an output)
//! are dropped outright. The campaign then simulates only the
//! representatives and [lifts](CollapsedFaultList::lift_coverage) their
//! records back over the full universe — bit-identical coverage for a
//! fraction of the scheduled faults, which the differential tests enforce.
//!
//! Collapsing composes with every other knob by construction: the drivers
//! collapse *first* ([`run_collapsed`]) and hand the representative list
//! to the uncollapsed machinery, so the plan groups representatives and
//! batching sees an ordinary fault list.

use crate::campaign::CampaignResult;
use eraser_fault::{CollapsedFaultList, FaultList};
use eraser_ir::Design;

/// Whether campaigns statically collapse the fault universe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollapseConfig {
    /// True to collapse before simulating.
    pub enabled: bool,
}

impl CollapseConfig {
    /// Collapsing off — every fault is scheduled individually.
    pub fn disabled() -> Self {
        CollapseConfig { enabled: false }
    }

    /// Collapsing on.
    pub fn enabled() -> Self {
        CollapseConfig { enabled: true }
    }
}

/// Builds the collapse plan for a campaign, or `None` when the config
/// leaves collapsing off (the universe is then used as-is).
pub fn collapse_plan(
    design: &Design,
    faults: &FaultList,
    config: &CollapseConfig,
) -> Option<CollapsedFaultList> {
    config
        .enabled
        .then(|| CollapsedFaultList::build(design, faults))
}

/// Runs `run` under the collapse setting — the one place a campaign driver
/// collapses. With collapsing off this is a transparent pass-through; with
/// it on, `run` receives the representative list, and the outcome's
/// coverage is lifted back over the full universe with the universe
/// accounting added to its counters (`classes + collapsed + dropped =
/// total`).
pub fn run_collapsed(
    design: &Design,
    faults: &FaultList,
    config: &CollapseConfig,
    run: impl FnOnce(&FaultList) -> CampaignResult,
) -> CampaignResult {
    let Some(plan) = collapse_plan(design, faults, config) else {
        return run(faults);
    };
    let mut out = run(plan.representatives());
    out.coverage = plan.lift_coverage(&out.coverage);
    out.stats.collapse_classes += plan.num_classes() as u64;
    out.stats.collapsed_faults += plan.collapsed_faults() as u64;
    out.stats.collapse_dropped += plan.dropped().len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert_eq!(CollapseConfig::default(), CollapseConfig::disabled());
    }
}
