//! Snapshot round-trip property: capturing a settle-point state and
//! restoring it — into the same simulator later, or into a different
//! (even dirty) simulator instance — must make continued stepping
//! bit-identical to the uninterrupted run, on random stimuli, under both
//! settle rules.

use eraser_frontend::compile;
use eraser_ir::{Design, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, SimSnapshot, Simulator, Steps, StimulusBuilder};

/// A settle rule, as a constructor over an evaluator.
type SettleRule = for<'d> fn(Evaluator<'d>) -> Simulator<'d>;

/// The two settle rules.
const RULES: [(&str, SettleRule); 2] = [
    ("event-driven", |eval| Simulator::with_evaluator(eval)),
    ("levelized", |eval| Simulator::levelized(eval)),
];

/// Every settle rule: a label and a fresh-simulator maker.
fn simulators<'d>(
    design: &'d Design,
) -> impl Iterator<Item = (&'static str, impl Fn() -> Simulator<'d>)> {
    RULES
        .into_iter()
        .map(move |(label, rule)| (label, move || rule(Evaluator::tree(design))))
}

/// Deterministic xorshift over the test's seed space.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const DESIGNS: &[&str] = &[
    // Sequential counter + async-ish mix of comb logic.
    "module d0(input wire clk, input wire rst, input wire [3:0] a,
               output reg [7:0] acc, output wire [7:0] mix);
       wire [7:0] ext;
       assign ext = {a, a};
       assign mix = acc ^ ext;
       always @(posedge clk) begin
         if (rst) acc <= 8'h00; else acc <= acc + ext;
       end
     endmodule",
    // Behavioral decode with casez, dynamic bit writes, NBAs and locals.
    "module d1(input wire clk, input wire rst, input wire [3:0] a,
               input wire [2:0] i, output reg [7:0] q, output wire [7:0] w);
       reg [7:0] acc;
       assign w = (acc << a[1:0]) ^ {a, a};
       always @(posedge clk) begin
         if (rst) begin acc <= 8'h00; q <= 8'h00; end
         else begin
           casez (a)
             4'b1???: acc <= acc + {4'h0, a};
             4'b01??: acc <= acc ^ 8'h3c;
             default: acc <= acc - 8'h01;
           endcase
           q[i] <= a[0];
         end
       end
     endmodule",
    // Level-sensitive always with a for loop.
    "module d2(input wire clk, input wire [7:0] a, output reg [7:0] y,
               output reg [7:0] acc);
       integer k;
       always @(*) begin
         y = 8'h00;
         for (k = 0; k < 8; k = k + 1)
           y[k] = a[k] ^ a[(k + 1) % 8];
       end
       always @(posedge clk) acc <= acc + y;
     endmodule",
];

/// Builds the settle steps of a random clocked stimulus.
fn random_steps(design: &Design, seed: u64, cycles: usize) -> Steps {
    let clk = design.find_signal("clk").unwrap();
    let rst = design.find_signal("rst");
    let data: Vec<SignalId> = design
        .inputs()
        .iter()
        .copied()
        .filter(|s| *s != clk && Some(*s) != rst)
        .collect();
    let mut state = seed | 1;
    let mut sb = StimulusBuilder::with_capacity(cycles);
    let mut changes = Vec::new();
    for cycle in 0..cycles {
        changes.clear();
        if let Some(r) = rst {
            changes.push((r, LogicVec::from_u64(1, (cycle < 2) as u64)));
        }
        for &d in &data {
            let w = design.signal(d).width;
            changes.push((d, LogicVec::from_u64(w, xorshift(&mut state))));
        }
        sb.add_cycle(clk, &changes);
    }
    sb.finish().steps
}

/// Asserts two simulators agree on every signal of the design.
fn assert_state_eq(design: &Design, a: &Simulator, b: &Simulator, ctx: &str) {
    for i in 0..design.num_signals() {
        let s = SignalId::from_index(i);
        assert_eq!(
            a.value(s),
            b.value(s),
            "{ctx}: signal `{}` diverged",
            design.signal(s).name
        );
    }
}

#[test]
fn capture_restore_continue_is_bit_identical() {
    for (di, src) in DESIGNS.iter().enumerate() {
        let design = compile(src, None).unwrap();
        for (label, new_sim) in simulators(&design) {
            for seed in [3u64, 1337, 0xdead_beef] {
                let steps = random_steps(&design, seed ^ (di as u64) << 32, 14);
                // Reference: uninterrupted run, recording full state lazily
                // via a twin that is checkpointed at every step.
                let mut reference = new_sim();
                let mut subject = new_sim();
                // A dirty third instance that ran something else entirely:
                // restoring into it must fully overwrite its state.
                let mut dirty = new_sim();
                for k in (steps.len() - 5..steps.len()).rev() {
                    dirty.replay_step(&steps[k]);
                }

                let mut snap = SimSnapshot::new();
                for (si, step) in steps.iter().enumerate() {
                    reference.replay_step(step);
                    subject.replay_step(step);
                    if si % 5 == di % 5 {
                        // Round-trip through a snapshot mid-run: capture,
                        // perturb nothing, restore, continue.
                        subject.capture_into(&mut snap);
                        subject.restore_from(&snap);
                        assert_state_eq(&design, &reference, &subject, label);
                        assert_eq!(reference.deltas(), subject.deltas(), "{label}: deltas");
                        // And hydrate the dirty instance from the same
                        // snapshot; it becomes the new subject.
                        dirty.restore_from(&snap);
                        assert_state_eq(&design, &reference, &dirty, label);
                        std::mem::swap(&mut subject, &mut dirty);
                    }
                }
                assert_state_eq(&design, &reference, &subject, label);
            }
        }
    }
}

#[test]
fn restored_run_matches_suffix_of_full_run() {
    // Capture at step k, replay only the suffix on a fresh simulator, and
    // compare signal-for-signal against the full run after every step.
    let design = compile(DESIGNS[1], None).unwrap();
    for (label, new_sim) in simulators(&design) {
        let steps = random_steps(&design, 99, 12);
        for k in [4usize, 9, 15] {
            let mut full = new_sim();
            let mut snap = SimSnapshot::new();
            for (si, step) in steps.iter().enumerate() {
                if si == k {
                    full.capture_into(&mut snap);
                }
                full.replay_step(step);
            }
            let mut resumed = new_sim();
            resumed.restore_from(&snap);
            let mut twin = new_sim();
            for (si, step) in steps.iter().enumerate() {
                twin.replay_step(step);
                if si >= k {
                    resumed.replay_step(step);
                    assert_state_eq(&design, &twin, &resumed, label);
                }
            }
            assert_state_eq(&design, &twin, &full, label);
        }
    }
}

#[test]
fn forces_are_part_of_the_snapshot() {
    let design = compile(DESIGNS[0], None).unwrap();
    for (label, new_sim) in simulators(&design) {
        check_forces_are_part_of_the_snapshot(&design, label, new_sim);
    }
}

fn check_forces_are_part_of_the_snapshot<'d>(
    design: &'d Design,
    label: &str,
    new_sim: impl Fn() -> Simulator<'d>,
) {
    let acc = design.find_signal("acc").unwrap();
    let steps = random_steps(design, 7, 8);
    let mut sim = new_sim();
    for step in steps.iter().take(6) {
        sim.replay_step(step);
    }
    let mut snap = SimSnapshot::new();
    sim.capture_into(&mut snap);
    // Force a bit, then restore: the force must be gone again.
    sim.force_bit(acc, 0, eraser_logic::LogicBit::One);
    assert_eq!(sim.value(acc).bit_or_x(0), eraser_logic::LogicBit::One);
    sim.restore_from(&snap);
    let mut twin = new_sim();
    for step in steps.iter().take(6) {
        twin.replay_step(step);
    }
    assert_state_eq(design, &twin, &sim, label);
    // Conversely, a snapshot taken *with* a force restores the force.
    sim.force_bit(acc, 1, eraser_logic::LogicBit::Zero);
    sim.capture_into(&mut snap);
    let mut other = new_sim();
    other.restore_from(&snap);
    for step in steps.iter_from(6) {
        sim.replay_step(step);
        other.replay_step(step);
    }
    assert_state_eq(design, &sim, &other, label);
}
