//! Regression suite for faults sited on primary-input signals against the
//! `set_input` early-return.
//!
//! `EraserEngine::set_input` (and the good simulator's) skips the commit
//! when the driven value equals the stored good value. That is only sound
//! because faults sited on inputs have their stuck-bit diff entries
//! materialized at engine construction and kept alive by every later
//! commit — if a skipped re-drive ever dropped them, a stuck-at on an
//! input port would silently go undetectable whenever the stimulus holds
//! the input steady. These tests pin that behavior down: the faulty input
//! bit only propagates *after* several cycles of identical re-drives, so
//! any entry lost to the early return would flip the verdict.

use eraser_core::{run_campaign, CampaignConfig, EraserEngine, RedundancyMode};
use eraser_fault::{generate_faults, FaultListConfig, StuckAt};
use eraser_frontend::compile;
use eraser_ir::Design;
use eraser_logic::LogicVec;
use eraser_sim::StimulusBuilder;

/// Input `a` only reaches state once `en` rises — after the stimulus has
/// re-applied the identical value of `a` for several cycles.
fn gated_design() -> Design {
    compile(
        "module m(input wire clk, input wire en, input wire [3:0] a, output reg [3:0] q);
           always @(posedge clk) begin
             if (en) q <= a; else q <= 4'h0;
           end
         endmodule",
        None,
    )
    .unwrap()
}

/// Faults on the data input only.
fn input_faults(d: &Design) -> eraser_fault::FaultList {
    generate_faults(
        d,
        &FaultListConfig {
            include_inputs: true,
            exclude_names: vec!["clk".into(), "en".into(), "q".into()],
            max_faults: None,
        },
    )
}

/// `a` held at a constant all-ones value every single cycle; `en` rises
/// only late, so by the time the fault could propagate, every re-drive of
/// `a` has hit the early return.
fn steady_stimulus(d: &Design, hold_cycles: usize) -> eraser_sim::Stimulus {
    let clk = d.find_signal("clk").unwrap();
    let en = d.find_signal("en").unwrap();
    let a = d.find_signal("a").unwrap();
    let mut sb = StimulusBuilder::new();
    for cycle in 0..hold_cycles + 4 {
        sb.add_cycle(
            clk,
            &[
                (a, LogicVec::from_u64(4, 0xf)),
                (en, LogicVec::from_u64(1, (cycle >= hold_cycles) as u64)),
            ],
        );
    }
    sb.finish()
}

#[test]
fn input_stuck_at_detected_after_identical_redrives() {
    let d = gated_design();
    let faults = input_faults(&d);
    // 4 bits of `a`, two polarities.
    assert_eq!(faults.len(), 8);
    let stim = steady_stimulus(&d, 6);
    let res = run_campaign(&d, &faults, &stim, &CampaignConfig::default());
    // Every stuck-at-0 on an all-ones input is detectable (and only
    // those: stuck-at-1 on a driven-to-1 bit never differs).
    for f in faults.iter() {
        let expect = f.stuck == StuckAt::Zero;
        assert_eq!(
            res.coverage.is_detected(f.id),
            expect,
            "stuck-at-{} on input bit {} misclassified",
            f.stuck,
            f.bit
        );
    }
}

/// Driving the identical value again must not change any fault's view of
/// the input — the diff entries materialized at construction survive the
/// early return verbatim.
#[test]
fn identical_redrive_preserves_input_diff_entries() {
    let d = gated_design();
    let faults = input_faults(&d);
    let a = d.find_signal("a").unwrap();
    let mut engine = EraserEngine::new(&d, &faults, RedundancyMode::Full, false);
    let v = LogicVec::from_u64(4, 0xf);
    engine.set_input(a, &v);
    engine.step();
    let before: Vec<LogicVec> = faults.iter().map(|f| engine.fault_value(a, f.id)).collect();
    for _ in 0..3 {
        engine.set_input(a, &v);
        engine.step();
    }
    for (f, prev) in faults.iter().zip(&before) {
        assert_eq!(
            engine.fault_value(a, f.id),
            *prev,
            "fault {} lost its input diff entry",
            f.id
        );
        if f.stuck == StuckAt::Zero {
            assert_ne!(engine.fault_value(a, f.id), v, "force no longer applied");
        }
    }
}
