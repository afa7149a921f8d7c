//! Value-level cross-validation of the concurrent engine.
//!
//! Much stronger than coverage parity: for every fault, every named signal
//! and every stimulus step, the fault's value reconstructed from the
//! concurrent engine's diff lists must equal the value of an independent
//! serial simulation with the stuck-at imposed as a force. This exercises
//! the full concurrent machinery — diff propagation through RTL nodes,
//! explicit/implicit behavioral skipping with write replay, divergent
//! activation (gated clocks), suppressed activations, partial writes and
//! loop-carried locals.
//!
//! The engine's four good-only lanes (a clean signal's commit, a clean RTL
//! node, a clean behavioral activation, a good-only NBA block on a clean
//! target) are pinned from both sides: over an empty fault list the engine
//! *is* the good simulator, and at each lane boundary — a sited register
//! under a part-select NBA, a divergent activation on a clean node, a node
//! turning clean when its last fault drops, `RedundancyMode::None`, a stale
//! RTL output, a sited RTL output, a part-select onto a difference — the
//! values still match the serial reference.
//! Algorithm 1's overlay rule is pinned the same way: faults on
//! write-before-read locals are skipped, faults on a local read before its
//! write or under a partial first write execute and are detected. So is its
//! span rule: faults on bits no constant select reads are skipped, faults
//! on selected or dynamically indexed bits execute. In `Full` mode the force
//! of a fault sited on an activation-local signal is never materialized, so
//! there that fault must read the good value; the same temporary with an
//! outside reader keeps its forced diff, and the monitor skips it at run
//! time.

use eraser_core::{EraserEngine, EvalBackend, RedundancyMode};
use eraser_designs::{netlist_fixtures, Benchmark, DesignSource, Lcg};
use eraser_fault::{
    detectable_mismatch, generate_faults, Detection, FaultList, FaultListConfig, StuckAt,
};
use eraser_frontend::compile;
use eraser_ir::analysis::activation_local_signals;
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, Simulator, Stimulus, StimulusBuilder};

fn value_parity(design: &Design, stim: &Stimulus, mode: RedundancyMode) {
    let faults = generate_faults(
        design,
        &FaultListConfig {
            exclude_names: vec!["clk".into(), "rst".into()],
            ..Default::default()
        },
    );
    value_parity_of(design, &faults, stim, mode);
}

/// The faults of the design's full universe sited on the named signals.
fn faults_on(design: &Design, names: &[&str]) -> FaultList {
    let sites: Vec<SignalId> = names
        .iter()
        .map(|n| design.find_signal(n).unwrap())
        .collect();
    let everywhere = FaultListConfig {
        include_inputs: true,
        ..Default::default()
    };
    let list: FaultList = generate_faults(design, &everywhere)
        .iter()
        .filter(|f| sites.contains(&f.signal))
        .copied()
        .collect();
    assert!(!list.is_empty());
    list
}

/// Value parity of `faults` against one forced serial simulator per fault;
/// returns the engine (observed after every step, nothing dropped) for
/// counter and coverage checks.
///
/// In `Full` mode the engine never materializes the force of a fault sited
/// on an activation-local signal, so there that fault must see the good
/// value instead of the serial one; every other fault, on those signals
/// too, must still match the serial simulator.
fn value_parity_of<'d>(
    design: &'d Design,
    faults: &'d FaultList,
    stim: &Stimulus,
    mode: RedundancyMode,
) -> EraserEngine<'d> {
    let local = match mode {
        RedundancyMode::Full => activation_local_signals(design),
        _ => vec![false; design.num_signals()],
    };
    // Concurrent engine over the whole batch (no dropping: values must
    // match to the end).
    let mut engine = EraserEngine::new(design, faults, mode, false);
    // One forced serial simulator per fault.
    let mut serials: Vec<Simulator> = faults
        .iter()
        .map(|f| {
            let mut s = Simulator::new(design);
            s.add_force(f.signal, f.bit, f.stuck.bit());
            s.step();
            s
        })
        .collect();
    let named: Vec<_> = (0..design.num_signals())
        .map(eraser_ir::SignalId::from_index)
        .filter(|s| !design.signal(*s).synthetic)
        .collect();
    for (si, step) in stim.steps.iter().enumerate() {
        for (sig, v) in step {
            engine.set_input(*sig, v);
            for s in serials.iter_mut() {
                s.set_input(*sig, v);
            }
        }
        engine.step();
        engine.observe();
        for s in serials.iter_mut() {
            s.step();
        }
        for f in faults.iter() {
            for &sig in &named {
                let conc = engine.fault_value(sig, f.id);
                if local[sig.index()] && f.signal == sig {
                    assert_eq!(
                        &conc,
                        engine.good_value(sig),
                        "step {si}, fault {} on activation-local {}: a materialized force",
                        f.id,
                        design.signal(sig).name,
                    );
                    continue;
                }
                let ser = serials[f.id.index()].value(sig);
                assert_eq!(
                    &conc,
                    ser,
                    "step {si}, fault {} ({} bit {} {}), signal {}: concurrent {conc} vs serial {ser} (good {})",
                    f.id,
                    design.signal(f.signal).name,
                    f.bit,
                    f.stuck,
                    design.signal(sig).name,
                    engine.good_value(sig),
                );
            }
        }
    }
    engine
}

/// A deliberately nasty design: gated clock (divergent activations), an
/// async reset, partial writes through a loop, a casez decoder and
/// cross-feeding registers.
fn nasty_design() -> Design {
    compile(
        "module nasty(
            input wire clk,
            input wire rst,
            input wire en,
            input wire [3:0] a,
            input wire [1:0] mode,
            output reg [7:0] q,
            output reg [3:0] flags,
            output wire [7:0] mix
         );
            wire gclk;
            reg [7:0] shadow;
            integer i;
            assign gclk = clk & en;
            assign mix = q ^ shadow;
            always @(posedge gclk or negedge rst) begin
                if (!rst) begin
                    q <= 8'h00;
                    shadow <= 8'hff;
                end
                else begin
                    casez ({mode, a[0]})
                        3'b00?: q <= q + {4'h0, a};
                        3'b010: q <= {q[3:0], q[7:4]};
                        3'b0?1: q <= q ^ shadow;
                        default: begin
                            for (i = 0; i < 4; i = i + 1)
                                q[i] <= a[i] ^ q[i];
                            shadow <= {shadow[6:0], shadow[7]};
                        end
                    endcase
                end
            end
            always @(posedge clk) begin
                if (rst) begin
                    flags[1:0] <= mode;
                    if (a > 4'h7) flags[3:2] <= a[1:0];
                end
                else flags <= 4'h0;
            end
         endmodule",
        None,
    )
    .unwrap()
}

fn nasty_stim(design: &Design, cycles: u64, seed: u64) -> Stimulus {
    let f = |n: &str| design.find_signal(n).unwrap();
    let (clk, rst, en, a, mode) = (f("clk"), f("rst"), f("en"), f("a"), f("mode"));
    let mut sb = StimulusBuilder::new();
    let mut state = seed | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    // Async reset assertion (rst low clears), then release.
    sb.add_step(vec![(rst, LogicVec::from_u64(1, 0))]);
    sb.add_step(vec![(rst, LogicVec::from_u64(1, 1))]);
    for _ in 0..cycles {
        let r = rng();
        sb.add_cycle(
            clk,
            &[
                (en, LogicVec::from_u64(1, r & 1)),
                (a, LogicVec::from_u64(4, r >> 1 & 0xf)),
                (mode, LogicVec::from_u64(2, r >> 5 & 3)),
                // Occasional async reset pulse mid-stream.
                (rst, LogicVec::from_u64(1, if r % 23 == 0 { 0 } else { 1 })),
            ],
        );
    }
    sb.finish()
}

#[test]
fn values_match_serial_full_mode() {
    let d = nasty_design();
    let stim = nasty_stim(&d, 25, 0x1234);
    value_parity(&d, &stim, RedundancyMode::Full);
}

#[test]
fn values_match_serial_explicit_mode() {
    let d = nasty_design();
    let stim = nasty_stim(&d, 25, 0x77);
    value_parity(&d, &stim, RedundancyMode::Explicit);
}

#[test]
fn values_match_serial_no_elimination() {
    let d = nasty_design();
    let stim = nasty_stim(&d, 25, 0xbeef);
    value_parity(&d, &stim, RedundancyMode::None);
}

#[test]
fn values_match_serial_second_seed() {
    let d = nasty_design();
    let stim = nasty_stim(&d, 40, 0xdead_cafe);
    value_parity(&d, &stim, RedundancyMode::Full);
}

/// The orders the one settle loop fixes, on a design where they matter:
/// `t` races through a blocking write between blocks firing on the same
/// edge; the block under an async reset comes first in the edge worklist
/// when `rst` falls in the step `clk` rises (it is then listed for `rst`,
/// on which it does not fire, before the `clk` fanout reaches it); and it
/// NBA-writes `q` twice, so the block's writes to `q` fold into one commit.
fn race_design() -> Design {
    compile(
        "module race(input wire clk, input wire rst, input wire [3:0] a,
                     output reg [3:0] y, output reg [3:0] q);
           reg [3:0] t;
           always @(posedge clk) t = a ^ q;
           always @(posedge clk or posedge rst) begin
             q <= q + 4'h1;
             if (rst) q <= 4'h0;
             else if (a[0]) q <= t;
           end
           always @(posedge clk) y <= t + 4'h1;
         endmodule",
        None,
    )
    .unwrap()
}

/// `cycles` clock cycles of random `a`, with `rst` driven ahead of `clk`
/// in the rising step, so a falling `rst` and a rising `clk` reach edge
/// detection together.
fn race_stim(design: &Design, cycles: u64, seed: u64) -> Stimulus {
    let f = |n: &str| design.find_signal(n).unwrap();
    let (clk, rst, a) = (f("clk"), f("rst"), f("a"));
    let mut rng = Lcg::new(seed);
    let mut sb = StimulusBuilder::new();
    for c in 0..cycles {
        let r = rng.below(64);
        sb.add_step(vec![
            (clk, LogicVec::from_u64(1, 0)),
            (a, LogicVec::from_u64(4, r & 0xf)),
        ]);
        let reset = c < 2 || r >> 4 == 3;
        sb.add_step(vec![
            (rst, LogicVec::from_u64(1, u64::from(reset))),
            (clk, LogicVec::from_u64(1, 1)),
        ]);
    }
    sb.finish()
}

#[test]
fn racing_blocks_match_serial_in_every_mode() {
    let d = race_design();
    for (seed, mode) in [
        (0x5eed, RedundancyMode::Full),
        (0x77, RedundancyMode::Explicit),
        (0xbeef, RedundancyMode::None),
    ] {
        value_parity(&d, &race_stim(&d, 30, seed), mode);
    }
}

/// Over an empty fault list every signal is clean from power-on, so every
/// commit, RTL node, activation and NBA block takes its good-only lane: the
/// engine must hold the good simulator's value on every signal after every
/// step, in the same number of deltas, without one fault evaluation. The
/// levelized simulator (VFsim's settle rule) steps along and must hold the
/// same values in the same number of deltas too: it differs only in what
/// is dirty when a delta starts. Ten benchmarks, two
/// netlist fixtures and the order pin of [`race_design`].
#[test]
fn engine_with_no_faults_is_the_good_simulator() {
    let mut sources: Vec<DesignSource> = Benchmark::all()
        .iter()
        .map(|b| DesignSource::benchmark(*b))
        .collect();
    sources.extend(netlist_fixtures());
    let race = race_design();
    let mut cases: Vec<(&str, &Design, Stimulus)> = sources
        .iter()
        .map(|src| (src.name(), src.design(), src.stimulus_with_cycles(250)))
        .collect();
    cases.push(("race", &race, race_stim(&race, 250, 0x5eed)));
    assert_eq!(cases.len(), 13);
    let no_faults = FaultList::default();
    for (name, design, stim) in &cases {
        for backend in [EvalBackend::Tree, EvalBackend::Tape] {
            let mut sim = Simulator::with_backend(design, backend);
            let mut levelized = Simulator::levelized(Evaluator::for_backend(design, backend));
            let mut engine = EraserEngine::session(design, &no_faults)
                .backend(backend)
                .start();
            for (si, step) in stim.steps.iter().enumerate() {
                for (sig, v) in step {
                    sim.set_input(*sig, v);
                    engine.set_input(*sig, v);
                }
                sim.step();
                levelized.replay_step(step);
                engine.step();
                engine.observe();
                for i in 0..design.num_signals() {
                    let sig = SignalId::from_index(i);
                    let at = || {
                        let signal = &design.signal(sig).name;
                        format!("{name} ({backend}), step {si}, signal {signal}")
                    };
                    assert_eq!(engine.good_value(sig), sim.value(sig), "{}", at());
                    assert_eq!(levelized.value(sig), sim.value(sig), "levelized, {}", at());
                }
            }
            let stats = engine.stats();
            assert_eq!(stats.deltas, sim.deltas(), "{name} ({backend})");
            let levelized = levelized.deltas();
            assert_eq!(levelized, sim.deltas(), "levelized, {name} ({backend})");
            assert_eq!(stats.fault_executions, 0);
            assert_eq!(stats.rtl_fault_evals, 0);
            assert_eq!(stats.opportunities, 0);
            assert_eq!(engine.coverage().detected(), 0);
        }
    }
}

/// A level-sensitive block that re-triggers itself, and an NBA loop, do
/// not settle once `a` drops: the kernel's bounds stop the good simulator
/// under both settle rules and the engine with one panic naming the step,
/// instead of spinning.
#[test]
fn self_triggering_blocks_do_not_settle() {
    for src in [
        "module m(input wire a, output reg x);
           always @(*) if (a) x = 1'b0; else x = ~x;
         endmodule",
        "module m(input wire a, output reg x);
           always @(x or a) if (a) x <= 1'b0; else x <= ~x;
         endmodule",
    ] {
        let d = compile(src, None).unwrap();
        let a = d.find_signal("a").unwrap();
        let faults = generate_faults(&d, &FaultListConfig::default());
        assert!(!faults.is_empty());
        let mut sim = Simulator::new(&d);
        let mut levelized = Simulator::levelized(Evaluator::tree(&d));
        let mut engine = EraserEngine::new(&d, &faults, RedundancyMode::Full, true);
        let mut steps: [&mut dyn FnMut(u64); 3] = [
            &mut |v| sim.replay_step(&[(a, LogicVec::from_u64(1, v))]),
            &mut |v| levelized.replay_step(&[(a, LogicVec::from_u64(1, v))]),
            &mut |v| {
                engine.set_input(a, &LogicVec::from_u64(1, v));
                engine.step();
            },
        ];
        for step in &mut steps {
            step(1);
            let stuck = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(0)))
                .expect_err("an oscillation must not settle");
            let msg = stuck.downcast_ref::<String>().unwrap();
            assert!(msg.starts_with("design did not settle within"), "{msg}");
            assert!(msg.ends_with("at step 1"), "{msg}");
        }
    }
}

/// `cycles` clock cycles with `rst` high for the first two and the named
/// `(input, width)`s driven from a seeded LCG.
fn drive_cycles(design: &Design, cycles: u64, seed: u64, inputs: &[(&str, u32)]) -> Stimulus {
    let clk = design.find_signal("clk").unwrap();
    let rst = design.find_signal("rst").unwrap();
    let ins: Vec<(SignalId, u32)> = inputs
        .iter()
        .map(|(n, w)| (design.find_signal(n).unwrap(), *w))
        .collect();
    let mut rng = Lcg::new(seed);
    let mut sb = StimulusBuilder::new();
    for c in 0..cycles {
        let mut drives = vec![(rst, LogicVec::from_u64(1, u64::from(c < 2)))];
        for &(sig, w) in &ins {
            drives.push((sig, LogicVec::from_u64(w, rng.below(1 << w))));
        }
        sb.add_cycle(clk, &drives);
    }
    sb.finish()
}

/// Lane boundary: faults sited on registers whose nodes read nothing
/// faulty — `q`, written only through part-select NBAs (which read the
/// target back), and `other`, written whole from a clean input. Where no
/// read carries a difference the activation takes lane 3, sited faults on
/// its targets or not; the NBA block's commit to a sited target may not
/// take lane 4, because the commit re-applies the force on every write.
#[test]
fn sited_register_under_part_select_nba_takes_the_general_path() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire sel, input wire [3:0] a,
                  output reg [7:0] q, output reg [3:0] other);
           always @(posedge clk) begin
             if (rst) q <= 8'h00;
             else if (sel) q[3:0] <= a;
             else q[7:4] <= a;
           end
           always @(posedge clk) other <= a;
         endmodule",
        None,
    )
    .unwrap();
    let stim = drive_cycles(&d, 30, 0x51, &[("sel", 1), ("a", 4)]);
    let faults = faults_on(&d, &["q", "other"]);
    for mode in [RedundancyMode::Full, RedundancyMode::Explicit] {
        value_parity_of(&d, &faults, &stim, mode);
    }
    // `other` alone: no node input ever carries a difference, so every
    // opportunity is an explicit skip — and the values above still needed
    // the force re-applied at every commit.
    let faults = faults_on(&d, &["other"]);
    let engine = value_parity_of(&d, &faults, &stim, RedundancyMode::Full);
    let s = engine.stats();
    assert!(s.opportunities > 0);
    assert_eq!(s.fault_executions, 0);
    assert_eq!(s.explicit_skipped, s.opportunities);
}

/// Lane boundary: a gated clock whose enable is faulted makes the register
/// behind it fire in the good network only (`suppressed`, stuck-at-0) or
/// in the fault's network only (`fault_only`, stuck-at-1), while everything
/// that register reads and writes is clean — one fault at a time, so no
/// other fault's difference dirties the node first. The divergence alone
/// must keep the activation off the lane. `held` is written by a blocking
/// assignment from a clean input: once a fault-only firing has left a
/// difference on it, the next joint firing reads nothing faulty and must
/// still replay the good write onto that difference.
#[test]
fn divergent_activation_on_a_clean_node_takes_the_general_path() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire en, input wire [3:0] a,
                  output reg [3:0] q, output reg [3:0] held);
           wire gclk;
           assign gclk = clk & en;
           always @(posedge gclk) begin
             if (rst) q <= 4'h0; else q <= q + a;
           end
           always @(posedge gclk) held = a;
         endmodule",
        None,
    )
    .unwrap();
    let stim = drive_cycles(&d, 40, 0x1d, &[("en", 1), ("a", 4)]);
    for stuck in [StuckAt::Zero, StuckAt::One] {
        let faults: FaultList = faults_on(&d, &["en"])
            .iter()
            .filter(|f| f.stuck == stuck)
            .copied()
            .collect();
        assert_eq!(faults.len(), 1);
        let engine = value_parity_of(&d, &faults, &stim, RedundancyMode::Full);
        let s = engine.stats();
        match stuck {
            StuckAt::Zero => assert_eq!(s.suppressed_activations, s.good_activations),
            StuckAt::One => assert!(s.fault_only_activations > 0),
        }
    }
}

/// Lane boundary: `RedundancyMode::None` executes every live fault at every
/// good activation, clean node or not — lane 3 must stay off while a fault
/// is alive.
#[test]
fn mode_none_executes_live_faults_on_clean_nodes() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire [3:0] a,
                  output reg [3:0] x, output reg [3:0] y);
           always @(posedge clk) begin
             if (rst) x <= 4'h0; else x <= x + a;
           end
           always @(posedge clk) y <= a;
         endmodule",
        None,
    )
    .unwrap();
    // Faults on `x` only: the `y` register stays clean throughout.
    let faults = faults_on(&d, &["x"]);
    let stim = drive_cycles(&d, 24, 0x77, &[("a", 4)]);
    let engine = value_parity_of(&d, &faults, &stim, RedundancyMode::None);
    let s = engine.stats();
    assert_eq!(s.explicit_skipped, 0);
    assert_eq!(s.implicit_skipped, 0);
    assert_eq!(s.opportunities, s.good_activations * faults.len() as u64);
    assert_eq!(s.fault_executions, s.opportunities);
}

/// Lane boundary: a difference on `a` reaches `m` only while the mux
/// selects it, and through `m` the input of `y`'s node. When `sel` drops,
/// `m`'s difference vanishes, `y`'s node reads nothing faulty and takes
/// lane 2, and the stale entry on `y` must be settled by the commit alone.
#[test]
fn vanished_mux_difference_leaves_a_stale_output_the_commit_purges() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire sel, input wire [3:0] a,
                  input wire [3:0] b, output wire [3:0] y, output reg [3:0] q);
           wire [3:0] m;
           assign m = sel ? a : b;
           assign y = m + 4'd1;
           always @(posedge clk) begin
             if (rst) q <= 4'h0; else q <= y;
           end
         endmodule",
        None,
    )
    .unwrap();
    let stim = drive_cycles(&d, 40, 0x3c, &[("sel", 1), ("a", 4), ("b", 4)]);
    let faults = faults_on(&d, &["a"]);
    for mode in [RedundancyMode::Full, RedundancyMode::Explicit] {
        value_parity_of(&d, &faults, &stim, mode);
    }
}

/// Lane boundary: faults sited on an RTL node's output `n` while its input
/// never differs. Every evaluation of the node takes lane 2, so no fault is
/// a candidate there, and the commit alone keeps the forces on `n`.
#[test]
fn fault_sited_on_an_rtl_output_with_clean_inputs_is_forced_by_the_commit() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire [3:0] a,
                  output wire [3:0] y, output reg [3:0] q);
           wire [3:0] n;
           assign n = a ^ 4'h5;
           assign y = n;
           always @(posedge clk) begin
             if (rst) q <= 4'h0; else q <= q + n;
           end
         endmodule",
        None,
    )
    .unwrap();
    let stim = drive_cycles(&d, 30, 0x2b, &[("a", 4)]);
    let faults = faults_on(&d, &["n"]);
    for mode in [RedundancyMode::Full, RedundancyMode::Explicit] {
        let engine = value_parity_of(&d, &faults, &stim, mode);
        assert!(
            engine.stats().rtl_fault_evals > 0,
            "{mode}: `n` never fed a node"
        );
    }
}

/// Lane boundary: the register's block reads clean inputs and writes `q`
/// by part-selects only. A faulted gate enable makes it fire in one
/// network alone, leaving a difference on `q` that the next joint firing
/// finds there: a part-select reads its target, so that difference keeps
/// the activation off lane 3, and the good part-select must land on it.
#[test]
fn clean_read_part_select_lands_on_a_target_carrying_a_difference() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire en, input wire sel,
                  input wire [3:0] a, output reg [7:0] q);
           wire gclk;
           assign gclk = clk & en;
           always @(posedge gclk) begin
             if (rst) q <= 8'h00;
             else if (sel) q[3:0] <= a;
             else q[7:4] <= a;
           end
         endmodule",
        None,
    )
    .unwrap();
    let stim = drive_cycles(&d, 40, 0x6e, &[("en", 1), ("sel", 1), ("a", 4)]);
    let faults: FaultList = faults_on(&d, &["en"])
        .iter()
        .filter(|f| f.stuck == StuckAt::One)
        .copied()
        .collect();
    for mode in [RedundancyMode::Full, RedundancyMode::Explicit] {
        let engine = value_parity_of(&d, &faults, &stim, mode);
        assert!(engine.stats().fault_only_activations > 0, "{mode}");
    }
}

/// Lane boundary in time: the `x` register's node is dirty while the fault
/// sited on `x` lives and clean from the step that fault is dropped (it
/// shows at the output only once `show` rises), while an unobservable fault
/// on `hidden` keeps the engine running. Up to the drop the run is the run
/// without dropping, counter for counter; after it the good network and the
/// surviving fault's network still are.
#[test]
fn node_turning_clean_when_its_last_fault_drops_changes_nothing() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire show, input wire [3:0] a,
                  output wire [3:0] y);
           reg [3:0] x;
           reg [3:0] hidden;
           assign y = x & {4{show}};
           always @(posedge clk) begin
             if (rst) x <= 4'h0; else x <= x + a;
           end
           always @(posedge clk) begin
             if (rst) hidden <= 4'h0; else hidden <= hidden ^ x;
           end
         endmodule",
        None,
    )
    .unwrap();
    let faults: FaultList = faults_on(&d, &["x", "hidden"])
        .iter()
        .filter(|f| f.bit == 0 && f.stuck == StuckAt::One)
        .copied()
        .collect();
    assert_eq!(faults.len(), 2);
    let hidden = d.find_signal("hidden").unwrap();
    let survivor = faults.iter().find(|f| f.signal == hidden).unwrap().id;
    let (clk, rst, show, a) = (
        d.find_signal("clk").unwrap(),
        d.find_signal("rst").unwrap(),
        d.find_signal("show").unwrap(),
        d.find_signal("a").unwrap(),
    );
    const SHOWN_FROM: u64 = 10;
    let mut sb = StimulusBuilder::new();
    for c in 0..24u64 {
        sb.add_cycle(
            clk,
            &[
                (rst, LogicVec::from_u64(1, u64::from(c < 2))),
                (show, LogicVec::from_u64(1, u64::from(c >= SHOWN_FROM))),
                (a, LogicVec::from_u64(4, c * 7 % 16)),
            ],
        );
    }
    let stim = sb.finish();

    let mut dropping = EraserEngine::new(&d, &faults, RedundancyMode::Full, true);
    let mut keeping = EraserEngine::new(&d, &faults, RedundancyMode::Full, false);
    let mut dropped_at = None;
    for (si, step) in stim.steps.iter().enumerate() {
        for engine in [&mut dropping, &mut keeping] {
            for (sig, v) in step {
                engine.set_input(*sig, v);
            }
            engine.step();
        }
        if dropped_at.is_none() {
            let (a, b) = (dropping.stats(), keeping.stats());
            assert_eq!(
                (a.opportunities, a.explicit_skipped, a.implicit_skipped),
                (b.opportunities, b.explicit_skipped, b.implicit_skipped),
                "step {si}"
            );
            assert_eq!(
                (a.fault_executions, a.rtl_fault_evals, a.rtl_good_evals),
                (b.fault_executions, b.rtl_fault_evals, b.rtl_good_evals),
                "step {si}"
            );
        }
        for i in 0..d.num_signals() {
            let sig = SignalId::from_index(i);
            assert_eq!(dropping.good_value(sig), keeping.good_value(sig));
            assert_eq!(
                dropping.fault_value(sig, survivor),
                keeping.fault_value(sig, survivor),
                "step {si}, signal {}",
                d.signal(sig).name
            );
        }
        dropping.observe();
        keeping.observe();
        if dropped_at.is_none() && dropping.live_faults() == 1 {
            dropped_at = Some(si);
        }
    }
    let dropped_at = dropped_at.expect("the fault on `x` is never detected");
    assert!(
        dropped_at >= SHOWN_FROM as usize,
        "dropped before it could show"
    );
    assert!(
        dropped_at + 8 < stim.steps.len(),
        "no run left after the drop"
    );
    assert_eq!(dropping.live_faults(), 1);
    for f in faults.iter() {
        assert_eq!(
            dropping.coverage().detection(f.id),
            keeping.coverage().detection(f.id)
        );
    }
    // The same good network ran in both; only fault work was trimmed.
    let (a, b) = (dropping.stats(), keeping.stats());
    assert_eq!(a.deltas, b.deltas);
    assert_eq!(a.good_activations, b.good_activations);
    assert_eq!(a.rtl_good_evals, b.rtl_good_evals);
    assert!(a.opportunities < b.opportunities);
    assert!(a.fault_executions < b.fault_executions);
}

/// One clocked body over `t`, with `clk`, `rst`, 4-bit inputs `a`, `b` and
/// an 8-bit `d`, and the output `q`.
fn local_design(body: &str) -> Design {
    local_design_observed(body, None)
}

/// [`local_design`], plus an 8-bit output `y` assigned `observed` when one
/// is given — an outside reader of whatever it names.
fn local_design_observed(body: &str, observed: Option<&str>) -> Design {
    let (port, assign) = match observed {
        Some(e) => (", output wire [7:0] y", format!("assign y = {e};")),
        None => ("", String::new()),
    };
    compile(
        &format!(
            "module m(input wire clk, input wire rst, input wire [3:0] a, input wire [3:0] b,
                      input wire [7:0] d, output reg [7:0] q{port});
               reg [7:0] t;
               reg [3:0] lead;
               integer i;
               {assign}
               always @(posedge clk) begin {body} end
             endmodule"
        ),
        None,
    )
    .unwrap()
}

/// Value parity of `faults` in `Explicit` and `Full` mode; returns the
/// `Full`-mode engine.
fn overlay_rule_parity<'d>(d: &'d Design, faults: &'d FaultList) -> EraserEngine<'d> {
    let stim = drive_cycles(d, 30, 0x0b, &[("a", 4), ("b", 4), ("d", 8)]);
    value_parity_of(d, faults, &stim, RedundancyMode::Explicit);
    value_parity_of(d, faults, &stim, RedundancyMode::Full)
}

/// Algorithm 1's overlay rule, from the skipping side: a stuck-at on a
/// temporary every activation writes before it reads is forced forever,
/// yet no execution reads the forced value — the read resolves from the
/// activation's own overlay. Every such fault is implicitly redundant. `t`
/// is activation-local, so `Full` mode books that from the static analysis
/// and never materializes the force.
#[test]
fn write_before_read_local_is_implicitly_redundant() {
    let d = local_design("t = a + b; q <= t;");
    assert!(activation_local_signals(&d)[d.find_signal("t").unwrap().index()]);
    let faults = faults_on(&d, &["t"]);
    let engine = overlay_rule_parity(&d, &faults);
    let s = engine.stats();
    assert!(s.implicit_skipped > 0);
    assert_eq!(s.fault_executions, 0);
}

/// The same temporary with an outside reader (`assign y = t`) is not
/// activation-local: its force is materialized, shows at `y`, and it is the
/// monitor's overlay rule, at run time, that still skips every execution of
/// the block. (Bits the 4-bit sum never sets hide their stuck-at-0s.)
#[test]
fn write_before_read_temporary_with_an_outside_reader_is_skipped_by_the_monitor() {
    let d = local_design_observed("t = a + b; q <= t;", Some("t"));
    assert!(!activation_local_signals(&d)[d.find_signal("t").unwrap().index()]);
    let faults = faults_on(&d, &["t"]);
    let engine = overlay_rule_parity(&d, &faults);
    let s = engine.stats();
    assert!(s.implicit_skipped > 0);
    assert_eq!(s.fault_executions, 0);
    assert!(engine.coverage().detected() > 0);
}

/// The static booking counts exactly what the monitor counts. Each body
/// runs twice over the same stimulus, nothing dropped: once with its
/// temporaries activation-local, once with an outside reader that makes the
/// engine materialize their forces, so the monitor finds them at run time.
/// The block books the same opportunities, skips and executions either way,
/// one polarity at a time (a bit's two stuck-ats are always visible
/// together on an `X` and one at a time otherwise).
#[test]
fn static_booking_counts_what_the_monitor_counts() {
    let cases: [(&str, &[&str], &str); 2] = [
        ("t = a + b; q <= t;", &["t"], "t"),
        (
            "lead = 0; for (i = 0; i < 8; i = i + 1) if (d[i]) lead = i; q <= {4'h0, lead};",
            &["i", "lead"],
            "{4'h0, lead}",
        ),
    ];
    for ((body, names, observed), stuck) in cases
        .into_iter()
        .flat_map(|c| [(c, StuckAt::Zero), (c, StuckAt::One)])
    {
        let counts = |d: &Design| {
            let faults: FaultList = faults_on(d, names)
                .iter()
                .filter(|f| f.stuck == stuck)
                .copied()
                .collect();
            let stim = drive_cycles(d, 40, 0x3c, &[("a", 4), ("b", 4), ("d", 8)]);
            let mut engine = EraserEngine::new(d, &faults, RedundancyMode::Full, false);
            engine.run(&stim);
            let s = engine.stats();
            (
                s.good_activations,
                s.opportunities,
                s.explicit_skipped,
                s.implicit_skipped,
                s.fault_executions,
            )
        };
        let local = counts(&local_design(body));
        assert!(local.3 > 0, "{body} {stuck}: nothing booked");
        assert_eq!(
            local,
            counts(&local_design_observed(body, Some(observed))),
            "{body} {stuck}"
        );
    }
}

/// A fault elsewhere that executes the block can write an activation-local
/// temporary a value of its own. Only the force of faults sited on the
/// temporary goes unmaterialized: `a`'s faults keep their own `t` (the
/// value parity above checks it against the serial simulator) until a good
/// write replays over it.
#[test]
fn executed_faults_keep_their_own_value_of_a_local() {
    let d = local_design("t = {a, b} & d; q <= {7'h0, t[0]};");
    let faults = faults_on(&d, &["a", "t"]);
    let engine = overlay_rule_parity(&d, &faults);
    let s = engine.stats();
    assert!(s.fault_executions > 0);
    assert!(s.implicit_skipped > 0);
}

/// The leading-one scan of the FPU: the loop variable and the result are
/// both written before every read, through a `for` decision and an `if`
/// decision per iteration.
#[test]
fn leading_one_scan_locals_are_implicitly_redundant() {
    let d = local_design(
        "lead = 0; for (i = 0; i < 8; i = i + 1) if (d[i]) lead = i; q <= {4'h0, lead};",
    );
    let faults = faults_on(&d, &["i", "lead"]);
    let engine = overlay_rule_parity(&d, &faults);
    let s = engine.stats();
    assert!(s.implicit_skipped > 0);
    assert_eq!(s.fault_executions, 0);
}

/// From the executing side: a read of `t` before this activation writes it
/// sees the committed (forced) value, so every fault on `t` executes and
/// shows at `q`.
#[test]
fn read_before_write_local_executes() {
    let d = local_design("q <= t; t = {a, b};");
    let faults = faults_on(&d, &["t"]);
    let engine = overlay_rule_parity(&d, &faults);
    assert!(engine.stats().fault_executions > 0);
    assert_eq!(engine.coverage().detected(), faults.len());
}

/// A partial first write reads its target from committed state: the
/// target enters the overlay only after that segment, so a fault on the
/// bits it does not write executes and shows at `q`.
#[test]
fn partial_first_write_reads_committed_target() {
    let d = local_design("t[3:0] = a; q <= t; t[7:4] = b;");
    let faults: FaultList = faults_on(&d, &["t"])
        .iter()
        .filter(|f| f.bit >= 4)
        .copied()
        .collect();
    let engine = overlay_rule_parity(&d, &faults);
    assert!(engine.stats().fault_executions > 0);
    assert_eq!(engine.coverage().detected(), faults.len());
}

/// The faults of `faults_on(d, &["t"])` on bits `lo..=hi`.
fn faults_on_bits(d: &Design, lo: u32, hi: u32) -> FaultList {
    faults_on(d, &["t"])
        .iter()
        .filter(|f| (lo..=hi).contains(&f.bit))
        .copied()
        .collect()
}

/// Algorithm 1's span rule, from the skipping side: a register whose
/// stuck-at sits on bits no read selects carries a diff every activation,
/// yet the only read is the constant select `t[3:0]` — no segment can
/// compute a different value, so every such fault is implicitly redundant.
#[test]
fn unselected_bits_of_a_read_are_not_a_visible_difference() {
    let d = local_design("q <= {4'h0, t[3:0]}; t <= {a, b};");
    let faults = faults_on_bits(&d, 4, 7);
    let engine = overlay_rule_parity(&d, &faults);
    let s = engine.stats();
    assert!(s.implicit_skipped > 0);
    assert_eq!(s.fault_executions, 0);
}

/// From the executing side: faults on the selected bits, and faults on any
/// bit under a dynamic index, execute; the selected ones show at `q`.
#[test]
fn selected_or_dynamically_indexed_bits_execute() {
    let d = local_design("q <= {4'h0, t[3:0]}; t <= {a, b};");
    let faults = faults_on_bits(&d, 0, 3);
    let engine = overlay_rule_parity(&d, &faults);
    assert!(engine.stats().fault_executions > 0);
    assert_eq!(engine.coverage().detected(), faults.len());

    let d = local_design("q <= {7'h0, t[a[2:0]]}; t <= {a, b};");
    let faults = faults_on_bits(&d, 4, 7);
    let engine = overlay_rule_parity(&d, &faults);
    assert!(engine.stats().fault_executions > 0);
}

/// The first detection of each fault by IFsim's flow: a fresh simulator per
/// fault takes the force and replays the stimulus from step 0 against the
/// good trace of the outputs.
fn serial_detections(
    design: &Design,
    faults: &FaultList,
    stim: &Stimulus,
) -> Vec<Option<Detection>> {
    let outputs = design.outputs();
    let mut good = Simulator::new(design);
    let trace: Vec<Vec<LogicVec>> = (stim.steps.iter())
        .map(|step| {
            good.replay_step(step);
            outputs.iter().map(|&o| good.value(o).clone()).collect()
        })
        .collect();
    (faults.iter())
        .map(|f| {
            let mut sim = Simulator::new(design);
            sim.force_bit(f.signal, f.bit, f.stuck.bit());
            stim.steps.iter().enumerate().find_map(|(step, changes)| {
                sim.replay_step(changes);
                let hit = (outputs.iter().zip(&trace[step]))
                    .find(|(o, g)| detectable_mismatch(g, sim.value(**o)))?;
                Some(Detection {
                    step,
                    output: *hit.0,
                })
            })
        })
        .collect()
}

/// The NBA commit's fault side folds each executed fault's writes by a
/// cursor that the block's ascending targets advance. One block writes its
/// targets out of target order — `z` whole and then one bit of it, `y` by
/// two part selects and then (when `a[0]`) whole, `x`, the lowest target,
/// last — and stuck-at faults on those registers' bits make the faulty
/// networks execute it. Every value at every step, and every first
/// detection, equals IFsim's.
#[test]
fn nba_block_written_out_of_target_order_matches_ifsim() {
    let d = compile(
        "module m(input wire clk, input wire rst, input wire [7:0] a,
                  output reg [7:0] x, output reg [7:0] y, output reg [7:0] z);
           always @(posedge clk) begin
             if (rst) begin z <= 8'h00; y <= 8'h00; x <= 8'h00; end
             else begin
               z <= z ^ a;
               y[3:0] <= a[7:4] ^ x[3:0];
               y[7:4] <= a[3:0];
               if (a[0]) y <= ~(y + z);
               z[7] <= x[0];
               x <= x + a;
             end
           end
         endmodule",
        None,
    )
    .unwrap();
    let f = |n: &str| d.find_signal(n).unwrap();
    assert!(f("x") < f("y") && f("y") < f("z"));
    let stim = drive_cycles(&d, 40, 0x0f01d, &[("a", 8)]);
    let faults = faults_on(&d, &["x", "y", "z"]);
    let serial = serial_detections(&d, &faults, &stim);
    for mode in [
        RedundancyMode::Full,
        RedundancyMode::Explicit,
        RedundancyMode::None,
    ] {
        let engine = value_parity_of(&d, &faults, &stim, mode);
        assert!(engine.stats().fault_executions > 0, "{mode:?}");
        for drop in [false, true] {
            let mut engine = EraserEngine::new(&d, &faults, mode, drop);
            engine.run(&stim);
            for (fault, want) in faults.iter().zip(&serial) {
                assert_eq!(
                    engine.coverage().detection(fault.id),
                    *want,
                    "{mode:?}, dropping {drop}, fault {}",
                    fault.id
                );
            }
        }
    }
    assert!(serial.iter().any(Option::is_some));
}
