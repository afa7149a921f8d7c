//! Fault ids are site-major, and every list derived from a universe keeps
//! them so: along id order the fault-site signal index never decreases.
//!
//! This is what lets every consumer work in plain id order instead of
//! re-deriving site order. The plan cuts its groups from id order, and the
//! engine packs its 64-wide batch lanes in id order, so faults that share
//! a site share an engine and a batch chunk. Checked here for the
//! generated universe of every benchmark and netlist fixture, sampled and
//! unsampled, for its collapsed representatives, and for every group of
//! the campaign plan.

use eraser::core::plan_campaign;
use eraser::designs::{netlist_fixtures, Benchmark, DesignSource};
use eraser::fault::{generate_faults, CollapsedFaultList, FaultList};

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

/// The universe and every group of a plan over it, at several group
/// counts.
fn assert_plans_site_major(what: &str, faults: &FaultList) {
    assert_site_major(what, faults);
    for n in [1, 2, 3, 7] {
        for group in &plan_campaign(faults, n).groups {
            assert_site_major(&format!("{what} n={n}"), &group.list);
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
            assert_plans_site_major(&what, &faults);
            let collapsed = CollapsedFaultList::build(source.design(), &faults);
            assert_plans_site_major(&format!("{what} collapsed"), collapsed.representatives());
        }
    }
}
