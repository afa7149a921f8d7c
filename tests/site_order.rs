//! Fault ids are site-major, and every list derived from a universe keeps
//! them so: along id order the fault-site signal index never decreases.
//!
//! This is what lets every consumer work in plain id order instead of
//! re-deriving site order. The plan cuts its groups from id order, and the
//! engine packs its 64-wide batch lanes in id order, so faults that share
//! a site share an engine and a batch chunk. Checked here for the
//! generated universe of every benchmark and netlist fixture, sampled and
//! unsampled, for its collapsed representatives, and for every group of
//! both plan constructors.

use eraser::core::{plan_campaign, record_good_run, CampaignConfig, CheckpointConfig};
use eraser::designs::{netlist_fixtures, Benchmark, DesignSource};
use eraser::fault::{generate_faults, CollapsedFaultList, FaultList, WindowPlan};

fn assert_site_major(what: &str, list: &FaultList) {
    if let Some(p) = list
        .faults()
        .windows(2)
        .find(|p| p[0].signal.index() > p[1].signal.index())
    {
        panic!(
            "{what}: signal index decreases along id order at {} -> {}",
            p[0].id, p[1].id
        );
    }
}

/// The universe, every group of a plan over it whole and over the faults a
/// good run leaves active, at several group counts.
fn assert_plans_site_major(what: &str, source: &DesignSource, faults: &FaultList) {
    assert_site_major(what, faults);
    let stim = source.stimulus_with_cycles(16);
    let config = CampaignConfig {
        checkpoint: CheckpointConfig::every(4),
        ..CampaignConfig::default()
    };
    let good = record_good_run(source.design(), faults, &stim, &config, None);
    for n in [1, 2, 3, 7] {
        let plans = [
            WindowPlan::from_step_zero(faults, n),
            plan_campaign(faults, Some(&good), n),
        ];
        for (kind, plan) in ["from_step_zero", "build"].iter().zip(&plans) {
            for group in &plan.shards {
                assert_site_major(&format!("{what} {kind} n={n}"), &group.list);
            }
        }
    }
}

#[test]
fn every_derived_fault_list_is_site_major() {
    let sources = Benchmark::all()
        .into_iter()
        .map(DesignSource::benchmark)
        .chain(netlist_fixtures());
    for source in sources {
        let name = source.name().to_string();
        let mut unsampled = source.fault_config().clone();
        unsampled.max_faults = None;
        let mut sampled = unsampled.clone();
        sampled.max_faults = Some(97);
        let configs = [
            ("default", source.fault_config().clone()),
            ("unsampled", unsampled),
            ("sampled", sampled),
        ];
        for (cfg_name, cfg) in configs {
            let faults = generate_faults(source.design(), &cfg);
            assert!(!faults.is_empty(), "{name} {cfg_name}: empty universe");
            let what = format!("{name} {cfg_name}");
            assert_plans_site_major(&what, &source, &faults);
            let collapsed = CollapsedFaultList::build(source.design(), &faults);
            assert_plans_site_major(
                &format!("{what} collapsed"),
                &source,
                collapsed.representatives(),
            );
        }
    }
}
