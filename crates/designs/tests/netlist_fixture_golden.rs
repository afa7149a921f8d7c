//! Golden-model checks for the bundled Yosys-JSON netlist fixtures.
//!
//! Each fixture is imported, driven with its deterministic stimulus, and
//! compared cycle-by-cycle against a software reference model — proving
//! the importer's cell mapping (simple gates, muxes with constant bits,
//! flops) preserves function, not just structure.

use eraser_designs::netlist_fixtures;
use eraser_ir::SignalId;
use eraser_sim::Simulator;

fn sig(d: &eraser_ir::Design, name: &str) -> SignalId {
    d.find_signal(name)
        .unwrap_or_else(|| panic!("fixture is missing signal `{name}`"))
}

#[test]
fn counter8_gate_matches_golden_model() {
    let fixtures = netlist_fixtures();
    let src = &fixtures[0];
    let d = src.design();
    let (rst, en, q, tc) = (sig(d, "rst"), sig(d, "en"), sig(d, "q"), sig(d, "tc"));
    let stim = src.stimulus();
    let mut sim = Simulator::new(d);

    // q' = rst ? 0 : (en ? q+1 : q); tc = &q. State is unknown until the
    // first reset cycle lands.
    let mut model: Option<u8> = None;
    let mut saw_tc = false;
    for cycle in 0..stim.num_cycles() {
        for (s, v) in &stim.steps[2 * cycle] {
            sim.set_input(*s, v);
        }
        sim.step();
        for (s, v) in &stim.steps[2 * cycle + 1] {
            sim.set_input(*s, v);
        }
        sim.step();
        let rst_v = sim.value(rst).to_u64() == Some(1);
        let en_v = sim.value(en).to_u64() == Some(1);
        model = match (rst_v, model) {
            (true, _) => Some(0),
            (false, Some(m)) => Some(if en_v { m.wrapping_add(1) } else { m }),
            (false, None) => None,
        };
        if let Some(m) = model {
            assert_eq!(
                sim.value(q).to_u64(),
                Some(m as u64),
                "q mismatch at cycle {cycle}"
            );
            let tc_expect = (m == 0xff) as u64;
            assert_eq!(
                sim.value(tc).to_u64(),
                Some(tc_expect),
                "tc mismatch at cycle {cycle} (q = {m:#x})"
            );
            saw_tc |= tc_expect == 1;
        }
    }
    assert!(model.is_some(), "reset never asserted");
    assert!(
        saw_tc,
        "counter never wrapped; terminal-count cone untested"
    );
}

#[test]
fn mac16_gate_matches_golden_model() {
    let fixtures = netlist_fixtures();
    let src = &fixtures[1];
    let d = src.design();
    let (rst, en) = (sig(d, "rst"), sig(d, "en"));
    let (lfsr, acc, parity) = (sig(d, "lfsr"), sig(d, "acc"), sig(d, "parity"));
    let stim = src.stimulus();
    let mut sim = Simulator::new(d);

    // lfsr' = rst ? 1 : {lfsr[14:0], fb} with fb = l15^l14^l12^l3;
    // acc' = rst ? 0 : acc + (en ? lfsr : 0); parity = ^acc.
    let mut model: Option<(u16, u16)> = None;
    for cycle in 0..stim.num_cycles() {
        for (s, v) in &stim.steps[2 * cycle] {
            sim.set_input(*s, v);
        }
        sim.step();
        for (s, v) in &stim.steps[2 * cycle + 1] {
            sim.set_input(*s, v);
        }
        sim.step();
        let rst_v = sim.value(rst).to_u64() == Some(1);
        let en_v = sim.value(en).to_u64() == Some(1);
        model = match (rst_v, model) {
            (true, _) => Some((1, 0)),
            (false, Some((l, a))) => {
                let fb = ((l >> 15) ^ (l >> 14) ^ (l >> 12) ^ (l >> 3)) & 1;
                let l2 = (l << 1) | fb;
                let a2 = a.wrapping_add(if en_v { l } else { 0 });
                Some((l2, a2))
            }
            (false, None) => None,
        };
        if let Some((l, a)) = model {
            assert_eq!(
                sim.value(lfsr).to_u64(),
                Some(l as u64),
                "lfsr mismatch at cycle {cycle}"
            );
            assert_eq!(
                sim.value(acc).to_u64(),
                Some(a as u64),
                "acc mismatch at cycle {cycle}"
            );
            assert_eq!(
                sim.value(parity).to_u64(),
                Some((a.count_ones() & 1) as u64),
                "parity mismatch at cycle {cycle} (acc = {a:#x})"
            );
        }
    }
    assert!(model.is_some(), "reset never asserted");
}
