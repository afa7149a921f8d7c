//! The static fault-collapsing knob.
//!
//! Collapsing builds a [`CollapsedFaultList`] over the design's static
//! structure *before any engine runs*: equivalence classes over
//! alias/inverter chains fold to one representative each, and provably
//! undetectable sites (constant-dormant, no influence path to an output)
//! are dropped outright. The campaign then simulates only the
//! representatives and [lifts](CollapsedFaultList::lift_coverage) their
//! records back over the full universe — bit-identical coverage for a
//! fraction of the scheduled faults, which the differential tests enforce.
//!
//! Collapsing composes with every other knob by construction: the drivers
//! collapse *first* and hand the representative list to the uncollapsed
//! machinery, so sharding partitions representatives and checkpointing,
//! batching and both eval backends see an ordinary fault list.

use crate::api::EngineResult;
use crate::campaign::CampaignConfig;
use crate::stats::RedundancyStats;
use eraser_fault::{CollapsedFaultList, FaultList};
use eraser_ir::Design;
use std::time::Instant;

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

/// Adds a collapse plan's universe accounting to a stats block (losslessly
/// mergeable: shard merges sum the counters like every other field).
pub fn stamp_collapse_stats(stats: &mut RedundancyStats, plan: &CollapsedFaultList) {
    stats.collapse_classes += plan.num_classes() as u64;
    stats.collapsed_faults += plan.collapsed_faults() as u64;
    stats.collapse_dropped += plan.dropped().len() as u64;
}

/// Runs `run` under `config`'s collapse setting: with collapsing off this
/// is a transparent pass-through; with it on, `run` receives the
/// representative list and a config with collapsing disabled (so nested
/// drivers never collapse twice), and the result's coverage is lifted back
/// over the full universe with the collapse counters stamped.
///
/// This is the one wrapper every engine driver shares — the concurrent
/// campaign, the parallel adapter and the serial force-based baselines all
/// collapse through it, which is what makes the knob engine-uniform.
pub fn run_collapsed(
    design: &Design,
    faults: &FaultList,
    config: &CampaignConfig,
    run: impl FnOnce(&FaultList, &CampaignConfig) -> EngineResult,
) -> EngineResult {
    let Some(plan) = collapse_plan(design, faults, &config.collapse) else {
        return run(faults, config);
    };
    let t0 = Instant::now();
    let inner = CampaignConfig {
        collapse: CollapseConfig::disabled(),
        ..config.clone()
    };
    let mut result = run(plan.representatives(), &inner);
    result.coverage = plan.lift_coverage(&result.coverage);
    // Engines that carry no stats (the non-checkpointed serial baselines)
    // keep `stats: None` — materializing a zeroed block here would make
    // them look like counter-carrying engines to parity checks. Collapse
    // accounting is stamped wherever a stats block already exists.
    if let Some(stats) = result.stats.as_mut() {
        stamp_collapse_stats(stats, &plan);
    }
    // Honest wall: include the collapse analysis itself.
    result.wall = t0.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert_eq!(CollapseConfig::default(), CollapseConfig::disabled());
    }
}
