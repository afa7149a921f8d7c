//! Tree-vs-tape backend parity — the correctness criterion of the compiled
//! instruction-tape evaluation backend: on every benchmark design and in
//! every redundancy mode, a campaign run on [`EvalBackend::Tape`] must
//! produce **bit-identical** coverage (every fault's first-detection step
//! and observing output, not just the detected set) and identical
//! redundancy counters (the skip counts prove the execution paths were
//! identical, decision by decision) to the tree walker.
//!
//! The default tests run shortened campaigns on the same representative
//! subset as `engine_parity`; the `--ignored` sweep covers all ten
//! benchmarks.

use eraser::baselines::{IFsim, VFsim};
use eraser::core::{
    run_campaign, CampaignConfig, Eraser, EvalBackend, FaultSimEngine, RedundancyMode,
    RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};

/// Asserts every deterministic counter matches (timing fields excluded —
/// they are wall-clock measurements, not semantics).
fn assert_stats_identical(
    bench: &str,
    mode: RedundancyMode,
    a: &RedundancyStats,
    b: &RedundancyStats,
) {
    let key = |s: &RedundancyStats| {
        [
            s.good_activations,
            s.opportunities,
            s.explicit_skipped,
            s.implicit_skipped,
            s.fault_executions,
            s.fault_only_activations,
            s.suppressed_activations,
            s.rtl_good_evals,
            s.rtl_fault_evals,
            s.deltas,
            s.skipped_prefix_steps,
            s.skipped_faults,
            s.dropped_faults,
        ]
    };
    assert_eq!(
        key(a),
        key(b),
        "{bench} ({mode}): redundancy counters diverged between backends"
    );
}

fn parity_for(bench: Benchmark, cycles: usize, max_faults: usize) {
    let design = bench.build();
    let mut cfg: FaultListConfig = bench.fault_config();
    cfg.max_faults = Some(max_faults.min(cfg.max_faults.unwrap_or(usize::MAX)));
    let faults: FaultList = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, cycles);

    for mode in [
        RedundancyMode::None,
        RedundancyMode::Explicit,
        RedundancyMode::Full,
    ] {
        let run = |backend| {
            run_campaign(
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    mode,
                    backend,
                    ..CampaignConfig::default()
                },
            )
        };
        let tree = run(EvalBackend::Tree);
        let tape = run(EvalBackend::Tape);
        // Coverage must be identical record by record: the same faults,
        // detected at the same step on the same output.
        for f in faults.iter() {
            assert_eq!(
                tree.coverage.detection(f.id),
                tape.coverage.detection(f.id),
                "{} ({mode}): detection record of fault {} diverged",
                bench.name(),
                f.id
            );
        }
        assert_stats_identical(bench.name(), mode, &tree.stats, &tape.stats);
    }
}

#[test]
fn backend_parity_alu() {
    parity_for(Benchmark::Alu64, 40, 80);
}

#[test]
fn backend_parity_apb() {
    parity_for(Benchmark::Apb, 60, 80);
}

#[test]
fn backend_parity_picorv32() {
    parity_for(Benchmark::PicoRv32, 60, 80);
}

#[test]
fn backend_parity_sha256_hv() {
    parity_for(Benchmark::Sha256Hv, 72, 60);
}

#[test]
fn backend_parity_conv() {
    parity_for(Benchmark::ConvAcc, 40, 60);
}

/// Full-suite backend parity across all ten benchmarks × three redundancy
/// modes. Slow in debug builds; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn backend_parity_full_suite() {
    for bench in Benchmark::all() {
        parity_for(bench, bench.default_cycles() / 2, 250);
    }
}

/// Input-port stuck-at faults under a stimulus that re-applies identical
/// input values (exercising the `set_input` early return) must agree
/// across the concurrent engine and the serial force-based baselines, on
/// both backends.
#[test]
fn input_fault_parity_across_engines_and_backends() {
    let design = eraser::frontend::compile(
        "module m(input wire clk, input wire en, input wire [3:0] a, output reg [3:0] q);
           always @(posedge clk) begin
             if (en) q <= a; else q <= 4'h0;
           end
         endmodule",
        None,
    )
    .unwrap();
    let faults = generate_faults(
        &design,
        &FaultListConfig {
            include_inputs: true,
            exclude_names: vec!["clk".into(), "en".into()],
            max_faults: None,
        },
    );
    let clk = design.find_signal("clk").unwrap();
    let en = design.find_signal("en").unwrap();
    let a = design.find_signal("a").unwrap();
    let mut sb = eraser::sim::StimulusBuilder::new();
    for cycle in 0..10 {
        sb.add_cycle(
            clk,
            &[
                (a, eraser::logic::LogicVec::from_u64(4, 0xf)),
                (
                    en,
                    eraser::logic::LogicVec::from_u64(1, (cycle >= 6) as u64),
                ),
            ],
        );
    }
    let stim = sb.finish();
    let engines: Vec<Box<dyn FaultSimEngine>> = vec![
        Box::new(IFsim),
        Box::new(VFsim),
        Box::new(Eraser::full()),
        Box::new(Eraser::explicit()),
        Box::new(Eraser::none()),
    ];
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        let config = CampaignConfig {
            backend,
            ..CampaignConfig::default()
        };
        let reference = engines[0].run(&design, &faults, &stim, &config).coverage;
        assert!(reference.detected() > 0, "{backend}: nothing detected");
        for engine in &engines[1..] {
            let coverage = engine.run(&design, &faults, &stim, &config).coverage;
            assert!(
                reference.same_detected_set(&coverage),
                "{backend}: IFsim reports {reference} but {} reports {coverage}",
                engine.name()
            );
        }
    }
}
