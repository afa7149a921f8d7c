//! The engine's visibility state against a recount, after every step: each
//! node's visible-input count equals the number of its distinct inputs
//! (RTL) or reads (behavioral) whose diff list is non-empty, each signal's
//! site list holds exactly the live faults sited there whose force the
//! engine materializes, each signal's clean flag says both its lists are
//! empty, and no diff list or edge-latch copy names a dropped fault.

use super::EraserEngine;
use crate::RedundancyMode;
use eraser_designs::{Benchmark, DesignSource};
use eraser_fault::{generate_faults, FaultId, FaultList};
use eraser_frontend::compile;
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

/// Asserts the visibility state of `engine`, which drops detected faults,
/// after step `step`; adds to `seen` how many nodes see a visible input
/// and how many edge-latch copies hold entries.
fn check(engine: &EraserEngine<'_>, sites: &[Vec<FaultId>], step: usize, seen: &mut [usize; 2]) {
    let state = engine.state();
    let design = state.design;
    let visible = |sigs: &[eraser_ir::SignalId]| {
        let mut sigs = sigs.to_vec();
        sigs.sort_unstable();
        sigs.dedup();
        let n = sigs.iter().filter(|s| !state.diffs[s.index()].is_empty());
        n.count() as u32
    };
    for (i, node) in design.rtl_nodes().iter().enumerate() {
        let want = visible(&node.inputs);
        assert_eq!(state.rtl_vis[i], want, "RTL node {i} after step {step}");
        seen[0] += usize::from(want > 0);
    }
    for (i, node) in design.behavioral_nodes().iter().enumerate() {
        let want = visible(&node.reads);
        assert_eq!(state.beh_vis[i], want, "{} after step {step}", node.name);
        seen[0] += usize::from(want > 0);
    }
    for (si, sited) in sites.iter().enumerate() {
        let live: Vec<FaultId> = sited
            .iter()
            .copied()
            .filter(|f| !state.coverage.is_detected(*f))
            .collect();
        assert_eq!(
            state.site_faults[si], live,
            "site list {si} after step {step}"
        );
        assert_eq!(
            state.clean_sig[si],
            live.is_empty() && state.diffs[si].is_empty(),
            "clean flag {si} after step {step}"
        );
        for (what, list) in [
            ("diff list", &state.diffs[si]),
            ("edge-latch copy", &state.edge_prev_diffs[si]),
        ] {
            let dead = list.ids().find(|f| state.coverage.is_detected(*f));
            assert_eq!(dead, None, "{what} {si} after step {step}");
        }
        seen[1] += usize::from(!state.edge_prev_diffs[si].is_empty());
    }
}

#[test]
fn visibility_state_matches_a_recount_after_every_step() {
    // No benchmark watches an edge on a signal a detectable fault is
    // sited on; here `ck[1]` is one, shown at `y`, so a dropped fault's
    // entry sits in the edge latch of `ck`.
    let latch = compile(
        "module latch(input wire clk, input wire [3:0] a,
                      output wire [1:0] y, output reg [3:0] q);
           wire [1:0] ck;
           assign ck = {a[1], clk};
           assign y = ck;
           always @(posedge ck) q <= a;
         endmodule",
        None,
    )
    .unwrap();
    let sources = [
        DesignSource::benchmark(Benchmark::Apb),
        DesignSource::benchmark(Benchmark::MipsCpu),
        DesignSource::fixture("counter8_gate").unwrap(),
        DesignSource::fixture("mac16_gate").unwrap(),
        DesignSource::from_design(latch, Some("clk"), None, 7, 300).unwrap(),
    ];
    let (mut dropped, mut seen) = (0, [0; 2]);
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
            check(&engine, &sites, 0, &mut seen);
            for (k, step) in stim.steps.iter().enumerate() {
                engine.sim.replay_step(step);
                engine.observe();
                engine.sim.hook_mut().state.step_index += 1;
                check(&engine, &sites, k + 1, &mut seen);
            }
            dropped += engine.stats().dropped_faults;
        }
    }
    assert!(
        dropped > 0 && seen[0] > 0 && seen[1] > 0,
        "the sweep drops faults, sees differences and latches them"
    );
}
