//! Batch-vs-scalar parity — the correctness criterion of bit-parallel
//! fault batching: on every benchmark design, in every redundancy mode, on
//! both evaluation backends, at any thread count and checkpoint interval, a
//! campaign with `--batch` must produce **bit-identical** coverage (every
//! fault's first-detection step and observing output) and identical
//! semantic redundancy counters to the scalar run. The batch occupancy
//! counters (`batch_groups`, `batch_lanes`, `batch_scalar_fallbacks`) are
//! the only fields allowed to differ — they describe *how* the same work
//! was evaluated, not what it computed.
//!
//! The default tests run shortened campaigns on the same representative
//! subset as `backend_parity`; the `--ignored` sweep covers all ten
//! benchmarks.

use eraser::baselines::{IFsim, VFsim};
use eraser::core::{
    run_campaign, BatchConfig, CampaignConfig, CampaignRunner, CheckpointConfig, Eraser,
    EvalBackend, FaultSimEngine, ParallelConfig, RedundancyMode, RedundancyStats,
};
use eraser::designs::Benchmark;
use eraser::fault::{generate_faults, FaultList, FaultListConfig};

/// Asserts every semantic counter matches (timing fields and the batch
/// occupancy counters excluded — the latter are *expected* to differ, they
/// record which evaluation strategy ran).
fn assert_semantics_identical(label: &str, a: &RedundancyStats, b: &RedundancyStats) {
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
        "{label}: semantic counters diverged between scalar and batch"
    );
}

/// Runs scalar-vs-batch campaigns under `config` and asserts bit-identical
/// results; returns the batched run's stats for engagement checks.
fn compare(
    label: &str,
    design: &eraser::ir::Design,
    faults: &FaultList,
    stim: &eraser::sim::Stimulus,
    config: &CampaignConfig,
) -> RedundancyStats {
    let run = |batch| {
        run_campaign(
            design,
            faults,
            stim,
            &CampaignConfig {
                batch,
                ..config.clone()
            },
        )
    };
    let scalar = run(BatchConfig::disabled());
    let batched = run(BatchConfig::enabled());
    assert_eq!(scalar.stats.batch_groups, 0, "{label}: scalar run batched");
    assert_eq!(scalar.stats.batch_scalar_fallbacks, 0);
    for f in faults.iter() {
        assert_eq!(
            scalar.coverage.detection(f.id),
            batched.coverage.detection(f.id),
            "{label}: detection record of fault {} diverged",
            f.id
        );
    }
    assert_semantics_identical(label, &scalar.stats, &batched.stats);
    batched.stats
}

/// The full configuration matrix on one benchmark: redundancy modes ×
/// backends serially, then Full mode × backends × threads {1, 4} ×
/// checkpoint {off, every 8}.
fn batch_parity_for(bench: Benchmark, cycles: usize, max_faults: usize) {
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
        for backend in [EvalBackend::Tree, EvalBackend::Tape] {
            compare(
                &format!("{} ({mode}, {backend})", bench.name()),
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    mode,
                    backend,
                    ..CampaignConfig::default()
                },
            );
        }
    }
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        for threads in [1usize, 4] {
            for checkpoint in [CheckpointConfig::disabled(), CheckpointConfig::every(8)] {
                compare(
                    &format!(
                        "{} (Full, {backend}, {threads} threads, ckpt {:?})",
                        bench.name(),
                        checkpoint
                    ),
                    &design,
                    &faults,
                    &stim,
                    &CampaignConfig {
                        mode: RedundancyMode::Full,
                        backend,
                        parallel: ParallelConfig::with_threads(threads),
                        checkpoint,
                        ..CampaignConfig::default()
                    },
                );
            }
        }
    }
}

#[test]
fn batch_parity_apb() {
    batch_parity_for(Benchmark::Apb, 60, 80);
}

#[test]
fn batch_parity_alu() {
    batch_parity_for(Benchmark::Alu64, 40, 80);
}

#[test]
fn batch_parity_conv() {
    batch_parity_for(Benchmark::ConvAcc, 40, 60);
}

/// SHA-256 carries >64-bit signals: batch compilation must reject the wide
/// nodes (falling back to scalar evaluation) while still producing
/// bit-identical results on the rest.
#[test]
fn batch_parity_sha256_wide_fallback() {
    let bench = Benchmark::Sha256Hv;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(60);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 72);
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        compare(
            &format!("sha256_hv ({backend})"),
            &design,
            &faults,
            &stim,
            &CampaignConfig {
                mode: RedundancyMode::Full,
                backend,
                ..CampaignConfig::default()
            },
        );
    }
}

/// Full-suite batch parity across all ten benchmarks. Slow in debug
/// builds; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn batch_parity_full_suite() {
    for bench in Benchmark::all() {
        let design = bench.build();
        let mut cfg = bench.fault_config();
        cfg.max_faults = Some(250);
        let faults = generate_faults(&design, &cfg);
        let stim = bench.stimulus_with_cycles(&design, bench.default_cycles() / 2);
        for mode in [
            RedundancyMode::None,
            RedundancyMode::Explicit,
            RedundancyMode::Full,
        ] {
            for backend in [EvalBackend::Tree, EvalBackend::Tape] {
                compare(
                    &format!("{} ({mode}, {backend})", bench.name()),
                    &design,
                    &faults,
                    &stim,
                    &CampaignConfig {
                        mode,
                        backend,
                        ..CampaignConfig::default()
                    },
                );
            }
        }
    }
}

/// Lane-packing fixture: several faults on the *same* site (sharing batch
/// lanes by construction) mixed with faults on other sites, driving a
/// design made of batchable RTL nodes. The batch path must engage (filled
/// lanes, formed groups) and agree with the scalar run bit for bit.
#[test]
fn lane_packing_mixed_sites_engages_batching() {
    let design = eraser::frontend::compile(
        "module m(input wire clk, input wire [7:0] a, input wire [7:0] b,
                  output reg [7:0] q, output wire [7:0] y, output wire z);
           wire [7:0] s;
           wire [7:0] m1;
           assign s = a + b;
           assign m1 = s ^ {b[3:0], a[7:4]};
           assign y = (a < b) ? m1 : s;
           assign z = ^s;
           always @(posedge clk) q <= y;
         endmodule",
        None,
    )
    .unwrap();
    let faults = generate_faults(
        &design,
        &FaultListConfig {
            include_inputs: false,
            ..Default::default()
        },
    );
    assert!(
        faults.len() > 16,
        "fixture needs enough faults to fill lanes, got {}",
        faults.len()
    );
    let clk = design.find_signal("clk").unwrap();
    let a = design.find_signal("a").unwrap();
    let b = design.find_signal("b").unwrap();
    let mut sb = eraser::sim::StimulusBuilder::new();
    let mut x = 11u64;
    for _ in 0..30 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sb.add_cycle(
            clk,
            &[
                (a, eraser::logic::LogicVec::from_u64(8, x >> 20)),
                (b, eraser::logic::LogicVec::from_u64(8, x >> 40)),
            ],
        );
    }
    let stim = sb.finish();
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        let stats = compare(
            &format!("lane_packing ({backend})"),
            &design,
            &faults,
            &stim,
            &CampaignConfig {
                mode: RedundancyMode::Full,
                backend,
                drop_detected: false,
                // Occupancy is measured on the single-engine path: the
                // checkpointed window schedule legitimately splits faults
                // across per-group engines, thinning lane packing without
                // changing semantics (covered by the parity tests above).
                checkpoint: CheckpointConfig::disabled(),
                ..CampaignConfig::default()
            },
        );
        assert!(
            stats.batch_groups >= 1,
            "{backend}: batching never engaged ({stats:?})"
        );
        assert!(
            stats.batch_lanes > stats.batch_groups,
            "{backend}: no batch ever filled more than one lane"
        );
    }
}

/// Engagement on Table II designs, not only on the hand-built fixture: the
/// three benchmarks whose fault candidates sit on batchable RTL nodes must
/// form groups that fill more than one lane each (APB and ALU never form
/// groups — their candidates sit on unbatchable nodes).
#[test]
fn batching_engages_on_table2_designs() {
    for bench in [Benchmark::RiscvMini, Benchmark::ConvAcc, Benchmark::MipsCpu] {
        let design = bench.build();
        let mut cfg = bench.fault_config();
        cfg.max_faults = Some(100);
        let faults = generate_faults(&design, &cfg);
        let stim = bench.stimulus_with_cycles(&design, 40);
        let stats = compare(
            bench.name(),
            &design,
            &faults,
            &stim,
            &CampaignConfig {
                backend: EvalBackend::Tape,
                ..CampaignConfig::default()
            },
        );
        assert!(
            stats.batch_lanes > stats.batch_groups,
            "{}: the batch path never filled lanes ({stats:?})",
            bench.name()
        );
    }
}

/// The batched concurrent engine against the serial force-based baselines
/// (which never batch): the strongest differential oracle — two completely
/// independent evaluation strategies must agree on every detection record.
#[test]
fn batched_eraser_agrees_with_serial_baselines() {
    let bench = Benchmark::Apb;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(60);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 50);
    let engines: Vec<Box<dyn FaultSimEngine>> = vec![
        Box::new(IFsim),
        Box::new(VFsim),
        Box::new(Eraser::full()),
        Box::new(Eraser::explicit()),
        Box::new(Eraser::none()),
    ];
    for backend in [EvalBackend::Tree, EvalBackend::Tape] {
        let runner = CampaignRunner::new(&design, &faults, &stim).with_config(CampaignConfig {
            backend,
            batch: BatchConfig::enabled(),
            ..CampaignConfig::default()
        });
        let results = runner.run_all(&engines);
        if let Err(mismatch) = CampaignRunner::check_parity(&results) {
            panic!("{backend}: {mismatch}");
        }
        assert!(
            results[0].coverage.detected() > 0,
            "{backend}: nothing detected"
        );
    }
}
