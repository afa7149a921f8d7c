//! Register banks: the importer folds every flop cell with the same
//! sensitivity list into one edge-triggered behavioral node. The banking
//! must follow the lists exactly — clock, edge and asynchronous reset —
//! keep each cell's body (a `$dffe` enable, an `$adff` reset) in cell
//! order, and change nothing a simulation or a fault campaign can see: the
//! same logic written in Verilog with one `always` per flop reads the same
//! values step by step and detects the same faults at the same steps.

use eraser_core::{run_campaign, CampaignConfig};
use eraser_fault::{generate_faults, FaultListConfig, StuckAt};
use eraser_frontend::compile;
use eraser_ir::{Design, EdgeKind, LValue, Sensitivity, SignalId, Stmt};
use eraser_logic::LogicVec;
use eraser_netlist::import_str;
use eraser_sim::{Simulator, Stimulus, StimulusBuilder};
use std::collections::BTreeMap;

/// Six one-bit flops of four cell types, two `$adff` on different resets.
/// Bits: clk 2, rst1 3, rst2 4, en 5, din 6-7; q0..q5 are 10..15; x0 20,
/// x2 21, x5 22, nq0 23. Banks:
/// posedge clk {q0, q2 (enabled), q5}, negedge clk {q1}, posedge clk or
/// posedge rst1 {q3}, posedge clk or posedge rst2 {q4}.
const BANK_MIX_JSON: &str = r#"{
  "modules": {
    "bank_mix": {
      "attributes": { "top": 1 },
      "ports": {
        "clk":  { "direction": "input", "bits": [2] },
        "rst1": { "direction": "input", "bits": [3] },
        "rst2": { "direction": "input", "bits": [4] },
        "en":   { "direction": "input", "bits": [5] },
        "din":  { "direction": "input", "bits": [6, 7] },
        "q":    { "direction": "output", "bits": [10, 11, 12, 13, 14, 15] }
      },
      "cells": {
        "ff_q0": {
          "type": "$_DFF_P_",
          "parameters": {},
          "port_directions": { "C": "input", "D": "input", "Q": "output" },
          "connections": { "C": [2], "D": [20], "Q": [10] }
        },
        "ff_q1": {
          "type": "$_DFF_N_",
          "parameters": {},
          "port_directions": { "C": "input", "D": "input", "Q": "output" },
          "connections": { "C": [2], "D": [10], "Q": [11] }
        },
        "ff_q2": {
          "type": "$dffe",
          "parameters": { "CLK_POLARITY": 1, "EN_POLARITY": 1, "WIDTH": 1 },
          "port_directions": { "CLK": "input", "EN": "input", "D": "input", "Q": "output" },
          "connections": { "CLK": [2], "EN": [5], "D": [21], "Q": [12] }
        },
        "ff_q3": {
          "type": "$adff",
          "parameters": { "CLK_POLARITY": 1, "ARST_POLARITY": 1, "ARST_VALUE": "0", "WIDTH": 1 },
          "port_directions": { "CLK": "input", "ARST": "input", "D": "input", "Q": "output" },
          "connections": { "CLK": [2], "ARST": [3], "D": [12], "Q": [13] }
        },
        "ff_q4": {
          "type": "$adff",
          "parameters": { "CLK_POLARITY": 1, "ARST_POLARITY": 1, "ARST_VALUE": "1", "WIDTH": 1 },
          "port_directions": { "CLK": "input", "ARST": "input", "D": "input", "Q": "output" },
          "connections": { "CLK": [2], "ARST": [4], "D": [13], "Q": [14] }
        },
        "ff_q5": {
          "type": "$_DFF_P_",
          "parameters": {},
          "port_directions": { "C": "input", "D": "input", "Q": "output" },
          "connections": { "C": [2], "D": [22], "Q": [15] }
        },
        "xor_x0": {
          "type": "$_XOR_",
          "parameters": {},
          "port_directions": { "A": "input", "B": "input", "Y": "output" },
          "connections": { "A": [14], "B": [6], "Y": [20] }
        },
        "xor_x2": {
          "type": "$_XOR_",
          "parameters": {},
          "port_directions": { "A": "input", "B": "input", "Y": "output" },
          "connections": { "A": [11], "B": [7], "Y": [21] }
        },
        "not_nq0": {
          "type": "$_NOT_",
          "parameters": {},
          "port_directions": { "A": "input", "Y": "output" },
          "connections": { "A": [10], "Y": [23] }
        },
        "and_x5": {
          "type": "$_AND_",
          "parameters": {},
          "port_directions": { "A": "input", "B": "input", "Y": "output" },
          "connections": { "A": [14], "B": [23], "Y": [22] }
        }
      },
      "netnames": {
        "q0":  { "hide_name": 0, "bits": [10] },
        "q1":  { "hide_name": 0, "bits": [11] },
        "q2":  { "hide_name": 0, "bits": [12] },
        "q3":  { "hide_name": 0, "bits": [13] },
        "q4":  { "hide_name": 0, "bits": [14] },
        "q5":  { "hide_name": 0, "bits": [15] },
        "x0":  { "hide_name": 0, "bits": [20] },
        "x2":  { "hide_name": 0, "bits": [21] },
        "x5":  { "hide_name": 0, "bits": [22] },
        "nq0": { "hide_name": 0, "bits": [23] }
      }
    }
  }
}"#;

/// [`BANK_MIX_JSON`] written as a designer would, one `always` per flop.
const BANK_MIX_VERILOG: &str = "
module bank_mix(input wire clk, input wire rst1, input wire rst2, input wire en,
                input wire [1:0] din, output wire [5:0] q);
  reg q0, q1, q2, q3, q4, q5;
  wire x0, x2, x5, nq0;
  assign x0 = q4 ^ din[0];
  assign x2 = q1 ^ din[1];
  assign nq0 = ~q0;
  assign x5 = q4 & nq0;
  always @(posedge clk) q0 <= x0;
  always @(negedge clk) q1 <= q0;
  always @(posedge clk) if (en) q2 <= x2;
  always @(posedge clk or posedge rst1) if (rst1) q3 <= 1'b0; else q3 <= q2;
  always @(posedge clk or posedge rst2) if (rst2) q4 <= 1'b1; else q4 <= q3;
  always @(posedge clk) q5 <= x5;
  assign q = {q5, q4, q3, q2, q1, q0};
endmodule
";

fn sig(d: &Design, name: &str) -> SignalId {
    d.find_signal(name)
        .unwrap_or_else(|| panic!("no signal `{name}`"))
}

/// The signal a flop body writes: the assignment, or the `then` branch
/// of its enable or reset `if`.
fn target(body: &Stmt) -> SignalId {
    match body {
        Stmt::Assign {
            lhs: LValue::Full(s),
            ..
        } => *s,
        Stmt::If { then_s, .. } => target(then_s),
        other => panic!("not a flop body: {other:?}"),
    }
}

#[test]
fn one_bank_per_sensitivity_list_in_cell_order() {
    let d = import_str(BANK_MIX_JSON, None).unwrap();
    let (clk, rst1, rst2) = (sig(&d, "clk"), sig(&d, "rst1"), sig(&d, "rst2"));
    let q: Vec<SignalId> = (0..6).map(|i| sig(&d, &format!("q{i}"))).collect();
    let banks = d.behavioral_nodes();
    assert_eq!(banks.len(), 4, "{banks:#?}");

    // The posedge bank, named after its first cell: q0, q2 (an enable
    // `if`), q5, in cell order, which is ascending target order.
    let pos = &banks[0];
    assert_eq!(pos.name, "$bank$ff_q0");
    assert_eq!(
        pos.sensitivity,
        Sensitivity::Edges(vec![(EdgeKind::Pos, clk)])
    );
    let Stmt::Block(cells) = &pos.body else {
        panic!("a three-cell bank is a block: {:?}", pos.body)
    };
    assert_eq!(
        cells.iter().map(target).collect::<Vec<_>>(),
        [q[0], q[2], q[5]]
    );
    assert!(matches!(cells[1], Stmt::If { else_s: None, .. }));
    assert_eq!(pos.writes, [q[0], q[2], q[5]]);

    // One-cell banks keep the cell's own name and body.
    let neg = &banks[1];
    assert_eq!(neg.name, "ff_q1");
    assert_eq!(
        neg.sensitivity,
        Sensitivity::Edges(vec![(EdgeKind::Neg, clk)])
    );
    assert!(matches!(neg.body, Stmt::Assign { .. }));
    assert_eq!(target(&neg.body), q[1]);
    for (node, rst, qi) in [(&banks[2], rst1, 3), (&banks[3], rst2, 4)] {
        assert_eq!(node.name, format!("ff_q{qi}"));
        assert_eq!(
            node.sensitivity,
            Sensitivity::Edges(vec![(EdgeKind::Pos, clk), (EdgeKind::Pos, rst)])
        );
        assert!(matches!(
            node.body,
            Stmt::If {
                else_s: Some(_),
                ..
            }
        ));
        assert_eq!(target(&node.body), q[qi]);
    }
}

/// Resets, then 60 cycles of pseudo-random `din` and `en`, with a reset
/// pulse of each kind on the way.
fn stimulus(d: &Design) -> Stimulus {
    let (clk, rst1, rst2, en, din) = (
        sig(d, "clk"),
        sig(d, "rst1"),
        sig(d, "rst2"),
        sig(d, "en"),
        sig(d, "din"),
    );
    let bit = |x: u64| LogicVec::from_u64(1, x);
    let mut sb = StimulusBuilder::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for cycle in 0..64u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r1 = u64::from(cycle < 2 || cycle == 30);
        let r2 = u64::from(cycle < 2 || cycle == 45);
        sb.add_cycle(
            clk,
            &[
                (rst1, bit(r1)),
                (rst2, bit(r2)),
                (en, bit(u64::from(cycle < 2 || state & 3 != 0))),
                (din, LogicVec::from_u64(2, state >> 8 & 3)),
            ],
        );
    }
    sb.finish()
}

#[test]
fn banked_netlist_matches_one_always_per_flop() {
    let banked = import_str(BANK_MIX_JSON, None).unwrap();
    let per_flop = compile(BANK_MIX_VERILOG, Some("bank_mix")).unwrap();
    assert_eq!(per_flop.behavioral_nodes().len(), 6);
    let designs = [&banked, &per_flop];

    // Every named signal, read by name in both designs.
    let named: Vec<&str> = per_flop
        .signals()
        .iter()
        .filter(|s| !s.synthetic)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(named.len(), 16, "{named:?}");
    let ids = designs.map(|d| named.iter().map(|n| sig(d, n)).collect::<Vec<_>>());
    let stims = designs.map(stimulus);
    let mut sims = designs.map(Simulator::new);
    let mut defined = 0;
    for si in 0..stims[0].num_steps() {
        for (sim, stim) in sims.iter_mut().zip(&stims) {
            sim.replay_step(&stim.steps[si]);
        }
        for (k, name) in named.iter().enumerate() {
            let (b, p) = (sims[0].value(ids[0][k]), sims[1].value(ids[1][k]));
            assert_eq!(b, p, "`{name}` differs at step {si}");
        }
        defined += usize::from(sims[0].values().fully_defined());
    }
    assert!(
        defined > 100,
        "the state is defined for {defined} steps only"
    );

    // The same fault sites, detected at the same steps on the same outputs.
    let detections = |d: &Design, stim: &Stimulus| {
        let faults = generate_faults(d, &FaultListConfig::default());
        let result = run_campaign(d, &faults, stim, &CampaignConfig::default());
        let mut by_site = BTreeMap::new();
        for f in faults.iter() {
            let name = d.signal(f.signal).name.clone();
            let polarity = matches!(f.stuck, StuckAt::One);
            let seen = result.coverage.detection(f.id).map(|det| {
                let output = d.signal(det.output).name.clone();
                (det.step, output)
            });
            by_site.insert((name, f.bit, polarity), seen);
        }
        by_site
    };
    let banked_hits = detections(&banked, &stims[0]);
    let per_flop_hits = detections(&per_flop, &stims[1]);
    let detected = banked_hits.values().filter(|d| d.is_some()).count();
    assert!(detected > 10, "only {detected} faults detected");
    assert_eq!(banked_hits, per_flop_hits);
}
