//! The engine's visibility state against a recount, after every step: each
//! node's visible-input count equals the number of its distinct inputs
//! (RTL) or reads (behavioral) whose diff list is non-empty, and each
//! signal's site list holds exactly the live faults sited there whose
//! force the engine materializes.

use super::EraserEngine;
use crate::RedundancyMode;
use eraser_designs::{Benchmark, DesignSource};
use eraser_fault::{generate_faults, FaultId, FaultList};
use eraser_ir::analysis::activation_local_signals;
use eraser_ir::Design;

/// Per signal, the faults of `faults` whose force the engine materializes
/// in `mode`: all of them, except in `Full` mode the first fault of each
/// site and polarity on an activation-local signal.
fn materialized(design: &Design, faults: &FaultList, mode: RedundancyMode) -> Vec<Vec<FaultId>> {
    let local = match mode {
        RedundancyMode::Full => activation_local_signals(design),
        _ => vec![false; design.num_signals()],
    };
    let mut claimed = Vec::new();
    let mut sites = vec![Vec::new(); design.num_signals()];
    for f in faults.iter() {
        let key = (f.signal, f.bit, f.stuck);
        if local[f.signal.index()] && !claimed.contains(&key) {
            claimed.push(key);
        } else {
            sites[f.signal.index()].push(f.id);
        }
    }
    sites
}

/// Asserts the visibility state of `engine` after step `step`; returns how
/// many nodes see a visible input.
fn check(engine: &EraserEngine<'_>, sites: &[Vec<FaultId>], step: usize) -> usize {
    let state = engine.state();
    let design = state.design;
    let visible = |sigs: &[eraser_ir::SignalId]| {
        let mut sigs = sigs.to_vec();
        sigs.sort_unstable();
        sigs.dedup();
        let n = sigs.iter().filter(|s| !state.diffs[s.index()].is_empty());
        n.count() as u32
    };
    let mut seen = 0;
    for (i, node) in design.rtl_nodes().iter().enumerate() {
        let want = visible(&node.inputs);
        assert_eq!(state.rtl_vis[i], want, "RTL node {i} after step {step}");
        seen += usize::from(want > 0);
    }
    for (i, node) in design.behavioral_nodes().iter().enumerate() {
        let want = visible(&node.reads);
        assert_eq!(state.beh_vis[i], want, "{} after step {step}", node.name);
        seen += usize::from(want > 0);
    }
    for (si, sited) in sites.iter().enumerate() {
        let live: Vec<FaultId> = sited
            .iter()
            .copied()
            .filter(|f| state.alive[f.index()])
            .collect();
        assert_eq!(
            state.site_faults[si], live,
            "site list {si} after step {step}"
        );
    }
    seen
}

#[test]
fn visibility_state_matches_a_recount_after_every_step() {
    let sources = [
        DesignSource::benchmark(Benchmark::Apb),
        DesignSource::benchmark(Benchmark::MipsCpu),
        DesignSource::fixture("counter8_gate").unwrap(),
        DesignSource::fixture("mac16_gate").unwrap(),
    ];
    let (mut dropped, mut seen) = (0, 0);
    for src in &sources {
        let design = src.design();
        let faults: FaultList = generate_faults(design, src.fault_config())
            .iter()
            .take(48)
            .copied()
            .collect();
        let stim = src.stimulus_with_cycles(300);
        for mode in [RedundancyMode::Full, RedundancyMode::None] {
            let sites = materialized(design, &faults, mode);
            let mut engine = EraserEngine::new(design, &faults, mode, true);
            seen += check(&engine, &sites, 0);
            for (k, step) in stim.steps.iter().enumerate() {
                engine.sim.replay_step(step);
                engine.observe();
                engine.sim.hook_mut().state.step_index += 1;
                seen += check(&engine, &sites, k + 1);
            }
            dropped += engine.stats().dropped_faults;
        }
    }
    assert!(
        dropped > 0 && seen > 0,
        "the sweep drops faults and sees differences"
    );
}
