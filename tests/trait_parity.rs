//! Behavioral contract of the [`FaultSimEngine`] abstraction itself:
//! engines are interchangeable trait objects with stable names, and — the
//! Table II criterion — every engine reports bit-identical fault coverage
//! on real benchmark designs.

use eraser::baselines::{all_engines, CfSim};
use eraser::core::{CampaignConfig, Eraser, FaultSimEngine, RedundancyMode};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultListConfig};

fn setup(
    bench: Benchmark,
    cycles: usize,
    max_faults: usize,
) -> (
    eraser::ir::Design,
    eraser::fault::FaultList,
    eraser::sim::Stimulus,
) {
    let design = bench.build();
    let mut cfg: FaultListConfig = bench.fault_config();
    cfg.max_faults = Some(max_faults.min(cfg.max_faults.unwrap_or(usize::MAX)));
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, cycles);
    (design, faults, stim)
}

/// All engines, enumerated as trait objects, report bit-identical coverage
/// on three benchmark designs of different character (datapath, protocol
/// FSM, CPU) — and each fault's detected/undetected verdict matches
/// per-fault across every engine pair, not just in aggregate.
#[test]
fn engines_report_bit_identical_coverage_on_three_benchmarks() {
    for (bench, cycles, max_faults) in [
        (Benchmark::Alu64, 30, 48),
        (Benchmark::Apb, 48, 48),
        (Benchmark::RiscvMini, 40, 48),
    ] {
        let (design, faults, stim) = setup(bench, cycles, max_faults);
        let engines = all_engines();
        let names: Vec<String> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["IFsim", "VFsim", "CfSim", "Eraser"]);
        let results: Vec<_> = engines
            .iter()
            .map(|e| e.run(&design, &faults, &stim, &CampaignConfig::default()))
            .collect();
        for (i, pair) in results.windows(2).enumerate() {
            let (a, b) = (&pair[0].coverage, &pair[1].coverage);
            let (na, nb) = (&names[i], &names[i + 1]);
            assert!(
                a.same_detected_set(b),
                "{}: {na} ({a}) vs {nb} ({b})",
                bench.name()
            );
            // Bit-identical per fault, not just equal counts.
            for f in faults.iter() {
                assert_eq!(
                    a.is_detected(f.id),
                    b.is_detected(f.id),
                    "{}: fault {} verdict differs between {na} and {nb}",
                    bench.name(),
                    f.id
                );
            }
        }
        assert!(
            results[0].coverage.detected() > 0,
            "{}: campaign detected nothing",
            bench.name()
        );
    }
}

/// The `Eraser` trait impl pins its own ablation mode, overriding the
/// shared campaign config — so a heterogeneous engine list runs correctly
/// under one config — while CfSim is exactly the explicit-mode engine
/// under a different name.
#[test]
fn eraser_mode_overrides_shared_config() {
    let (design, faults, stim) = setup(Benchmark::PicoRv32, 40, 40);
    let config = CampaignConfig {
        mode: RedundancyMode::None, // would disable all elimination
        drop_detected: true,
        ..Default::default()
    };
    let run = |engine: &dyn FaultSimEngine| engine.run(&design, &faults, &stim, &config);

    let full = run(&Eraser::full());
    assert!(
        full.stats.eliminated() > 0,
        "full mode must eliminate redundancy despite config.mode = None"
    );

    let cfsim = run(&CfSim);
    let explicit = run(&Eraser::explicit());
    assert!(cfsim.coverage.same_detected_set(&explicit.coverage));
    let (cf, ex) = (cfsim.stats, explicit.stats);
    assert_eq!(cf.fault_executions, ex.fault_executions);
    assert_eq!(cf.explicit_skipped, ex.explicit_skipped);
    assert_eq!(cf.implicit_skipped, 0);
}

/// The three ablation variants agree on coverage and are monotone in
/// executed work (Eraser-- >= Eraser- >= Eraser), driven purely through
/// the trait.
#[test]
fn ablation_line_up_is_monotone() {
    let (design, faults, stim) = setup(Benchmark::Sha256Hv, 72, 32);
    let engines = Eraser::ablation();
    let names: Vec<String> = engines.iter().map(|e| e.name()).collect();
    assert_eq!(names, ["Eraser--", "Eraser-", "Eraser"]);
    let results: Vec<_> = engines
        .iter()
        .map(|e| e.run(&design, &faults, &stim, &CampaignConfig::default()))
        .collect();
    for (name, r) in names.iter().zip(&results) {
        assert!(
            results[0].coverage.same_detected_set(&r.coverage),
            "ablation parity: {name}"
        );
    }
    let execs: Vec<u64> = results.iter().map(|r| r.stats.fault_executions).collect();
    assert!(
        execs[0] >= execs[1] && execs[1] >= execs[2],
        "executions not monotone: {execs:?}"
    );
}
