//! Collapse-vs-full parity — the correctness criterion of static fault
//! collapsing: on every benchmark design, with every engine, at any
//! thread count, with and without bit-parallel batching, a campaign with
//! `--collapse` must
//! produce **bit-identical** coverage (every fault's first-detection step
//! and observing output) over the *full* fault universe. The semantic
//! redundancy counters are *expected* to differ — the collapsed run
//! schedules fewer faults, which is the whole point — so parity here is
//! per-fault detection records plus the collapse accounting identity
//! `classes + collapsed + dropped == total`.
//!
//! The default tests run shortened campaigns on a representative subset;
//! the `--ignored` sweep covers all ten benchmarks. A hand-built fixture asserts each collapse rule actually
//! fires (alias fold, unobservable drop, unread-bit drop), and the exact
//! collapse of every checked-in design is pinned.

use eraser::baselines::{IFsim, VFsim};
use eraser::core::{
    run_campaign, BatchConfig, CampaignConfig, CollapseConfig, FaultSimEngine, ParallelConfig,
    RedundancyMode,
};
use eraser::designs::{netlist_fixtures, Benchmark, DesignSource};
use eraser::fault::{
    generate_faults, CollapsedFaultList, FaultId, FaultList, FaultListConfig, StuckAt,
};

/// Runs collapsed-vs-full campaigns under `config` and asserts
/// bit-identical per-fault coverage over the full universe, plus the
/// collapse accounting identity on the collapsed run's stats.
fn compare(
    label: &str,
    design: &eraser::ir::Design,
    faults: &FaultList,
    stim: &eraser::sim::Stimulus,
    config: &CampaignConfig,
) {
    let run = |collapse| {
        run_campaign(
            design,
            faults,
            stim,
            &CampaignConfig {
                collapse,
                ..config.clone()
            },
        )
    };
    let full = run(CollapseConfig::disabled());
    let collapsed = run(CollapseConfig::enabled());
    assert_eq!(
        full.stats.collapse_classes, 0,
        "{label}: uncollapsed run recorded collapse classes"
    );
    assert_eq!(full.stats.collapsed_faults, 0);
    assert_eq!(full.stats.collapse_dropped, 0);
    assert_eq!(
        collapsed.stats.collapse_classes
            + collapsed.stats.collapsed_faults
            + collapsed.stats.collapse_dropped,
        faults.len() as u64,
        "{label}: collapse accounting does not partition the universe"
    );
    for f in faults.iter() {
        assert_eq!(
            full.coverage.detection(f.id),
            collapsed.coverage.detection(f.id),
            "{label}: detection record of fault {} diverged",
            f.id
        );
    }
}

/// The full configuration matrix on one benchmark: redundancy modes
/// serially, then Full mode × threads {1, 4} × batch {off, on}.
fn collapse_parity_for(bench: Benchmark, cycles: usize, max_faults: usize) {
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
        compare(
            &format!("{} ({mode})", bench.name()),
            &design,
            &faults,
            &stim,
            &CampaignConfig {
                mode,
                ..CampaignConfig::default()
            },
        );
    }
    for threads in [1usize, 4] {
        for batch in [BatchConfig::disabled(), BatchConfig::enabled()] {
            compare(
                &format!(
                    "{} (Full, {threads} threads, batch {:?})",
                    bench.name(),
                    batch
                ),
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    mode: RedundancyMode::Full,
                    parallel: ParallelConfig::with_threads(threads),
                    batch,
                    ..CampaignConfig::default()
                },
            );
        }
    }
}

#[test]
fn collapse_parity_apb() {
    collapse_parity_for(Benchmark::Apb, 60, 80);
}

#[test]
fn collapse_parity_alu() {
    collapse_parity_for(Benchmark::Alu64, 40, 80);
}

#[test]
fn collapse_parity_conv() {
    collapse_parity_for(Benchmark::ConvAcc, 40, 60);
}

/// The wide-signal path: >64-bit sites must collapse (or not) exactly like
/// narrow ones, with coverage lifted bit-identically.
#[test]
fn collapse_parity_sha256_wide() {
    let bench = Benchmark::Sha256Hv;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(60);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 72);
    compare(
        "sha256_hv",
        &design,
        &faults,
        &stim,
        &CampaignConfig {
            mode: RedundancyMode::Full,
            ..CampaignConfig::default()
        },
    );
}

/// The serial force-based baselines collapse through the same
/// [`run_collapsed`](eraser::core::run_collapsed) wrapper as the
/// concurrent campaign: their lifted coverage must match their own
/// uncollapsed run fault for fault.
#[test]
fn collapse_parity_baselines() {
    let bench = Benchmark::Apb;
    let design = bench.build();
    let mut cfg = bench.fault_config();
    cfg.max_faults = Some(60);
    let faults = generate_faults(&design, &cfg);
    let stim = bench.stimulus_with_cycles(&design, 50);
    let engines: [Box<dyn FaultSimEngine>; 2] = [Box::new(IFsim), Box::new(VFsim)];
    for engine in &engines {
        let run = |collapse| {
            engine.run(
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    collapse,
                    ..CampaignConfig::default()
                },
            )
        };
        let full = run(CollapseConfig::disabled());
        let collapsed = run(CollapseConfig::enabled());
        for f in faults.iter() {
            assert_eq!(
                full.coverage.detection(f.id),
                collapsed.coverage.detection(f.id),
                "{}: detection record of fault {} diverged",
                engine.name(),
                f.id
            );
        }
        assert!(
            full.coverage.detected() > 0,
            "{}: nothing detected",
            engine.name()
        );
    }
}

/// The collapse pass must engage on real universes, not only on the
/// hand-built fixture: a collapsed campaign over the full Table II
/// universe simulates fewer classes than faults on at least three of
/// these four designs. (A few cycles suffice — the plan is static.)
#[test]
fn collapse_shrinks_table2_universes() {
    let benches = [
        Benchmark::Apb,
        Benchmark::Fpu32,
        Benchmark::ConvAcc,
        Benchmark::SodorCore,
    ];
    let shrunk = benches
        .into_iter()
        .filter(|bench| {
            let design = bench.build();
            let faults = generate_faults(&design, &bench.fault_config());
            let stim = bench.stimulus_with_cycles(&design, 4);
            let stats = run_campaign(
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    collapse: CollapseConfig::enabled(),
                    ..CampaignConfig::default()
                },
            )
            .stats;
            (1..faults.len() as u64).contains(&stats.collapse_classes)
        })
        .count();
    assert!(
        shrunk >= 3,
        "collapse shrank the universe on only {shrunk} of 4 designs"
    );
}

/// What collapsing does today, pinned: exact (classes, folded, dropped)
/// over the default fault universe of every checked-in design — the ten
/// benchmarks, both netlist fixtures and the benchmark's external
/// `fifo_crc.v` (full universe). A rule change that moves any of these
/// moves `fault.collapse_ratio`.
#[test]
fn checked_in_designs_collapse_as_recorded() {
    let mut sources: Vec<DesignSource> = Benchmark::all()
        .into_iter()
        .map(DesignSource::benchmark)
        .collect();
    sources.extend(netlist_fixtures());
    let fifo =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/designs/fifo_crc.v");
    sources.push(DesignSource::load(&fifo, None, None, None, 0).unwrap());
    let recorded = [
        (262, 0, 0),  // ALU
        (656, 0, 44), // FPU
        (660, 0, 0),  // SHA256_HV
        (298, 0, 2),  // APB
        (364, 0, 4),  // Sodor Core
        (240, 0, 0),  // RISCV Mini
        (150, 0, 0),  // PicoRV32
        (370, 30, 0), // Conv_acc
        (660, 0, 0),  // SHA256_C2V
        (556, 0, 0),  // MIPS CPU
        (80, 18, 0),  // counter8_gate
        (352, 2, 4),  // mac16_gate
        (186, 0, 0),  // fifo_crc
    ];
    assert_eq!(sources.len(), recorded.len());
    for (source, expected) in sources.iter().zip(recorded) {
        let faults = generate_faults(source.design(), source.fault_config());
        let plan = CollapsedFaultList::build(source.design(), &faults);
        assert_eq!(
            (
                plan.num_classes(),
                plan.collapsed_faults(),
                plan.dropped().len()
            ),
            expected,
            "{}: (classes, folded, dropped) over {} faults",
            source.name(),
            faults.len()
        );
    }
}

/// Full-suite collapse parity across all ten benchmarks. Slow in debug
/// builds; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full benchmark sweep; run with --release -- --ignored"]
fn collapse_parity_full_suite() {
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
            compare(
                &format!("{} ({mode})", bench.name()),
                &design,
                &faults,
                &stim,
                &CampaignConfig {
                    mode,
                    ..CampaignConfig::default()
                },
            );
        }
    }
}

/// Hand-built fixture where each of the three collapse rules fires:
///
/// * `assign u = t` with `t` read only by that alias — alias fold between
///   `t` and `u` bits.
/// * `dead` is driven but read by nothing — unobservable drop.
/// * `half` is read only through `half[0]`, and an 8-bit wire feeds a
///   4-bit submodule port (the port-connection buffer truncates) —
///   unread-bit drops on `half[3:1]` and `wide[7:4]`.
///
/// `inv = ~u` and the constant `k` are shapes no rule acts on: their
/// faults stay in classes of their own.
#[test]
fn fixture_alias_unobservable_and_unread_bit_rules_fire() {
    let design = eraser::frontend::compile(
        "module sub(input wire [3:0] n, output wire [3:0] p);
           assign p = ~n;
         endmodule
         module m(input wire clk, input wire [3:0] in, output reg [7:0] q);
           wire [3:0] t;
           wire [3:0] u;
           wire [3:0] inv;
           wire [7:0] wide;
           wire [3:0] narrow;
           wire [7:0] k;
           wire [3:0] dead;
           wire [3:0] half;
           assign t = in + 4'h1;
           assign u = t;
           assign inv = ~u;
           assign wide = {4'b1010, in};
           sub s (.n(wide), .p(narrow));
           assign k = 8'h5A;
           assign dead = in ^ 4'hF;
           assign half = in ^ 4'h3;
           always @(posedge clk) q <= {inv, narrow} + k + {7'b0, half[0]};
         endmodule",
        None,
    )
    .unwrap();
    let faults = generate_faults(
        &design,
        &FaultListConfig {
            include_inputs: true,
            max_faults: None,
            ..Default::default()
        },
    );
    let plan = CollapsedFaultList::build(&design, &faults);

    let sig = |name: &str| design.find_signal(name).unwrap();
    let fault_at = |name: &str, bit: u32, stuck: StuckAt| -> FaultId {
        let s = sig(name);
        faults
            .iter()
            .find(|f| f.signal == s && f.bit == bit && f.stuck == stuck)
            .unwrap_or_else(|| panic!("no fault at {name}[{bit}] stuck-at-{stuck:?}"))
            .id
    };

    // Alias fold: t[0]/0 and u[0]/0 share a class.
    let a = plan.representative_of(fault_at("t", 0, StuckAt::Zero));
    let b = plan.representative_of(fault_at("u", 0, StuckAt::Zero));
    assert!(a.is_some(), "alias-folded fault was dropped");
    assert_eq!(a, b, "alias fold did not fire on t[0]/u[0]");

    // Unread-bit drop through the narrowing port buffer: wide[7..4].
    for bit in 4..8 {
        for stuck in [StuckAt::Zero, StuckAt::One] {
            let f = fault_at("wide", bit, stuck);
            assert_eq!(
                plan.representative_of(f),
                None,
                "wide[{bit}] stuck-at-{stuck:?} survived the unread-bit drop"
            );
            assert!(plan.dropped().contains(&f));
        }
    }

    // Unobservable drop: dead reaches no output.
    let f = fault_at("dead", 0, StuckAt::One);
    assert_eq!(plan.representative_of(f), None);
    assert!(plan.dropped().contains(&f));

    // Unread-bit drop: only half[0] is ever read; the other bits drop.
    assert!(plan
        .representative_of(fault_at("half", 0, StuckAt::One))
        .is_some());
    for bit in 1..4 {
        let f = fault_at("half", bit, StuckAt::Zero);
        assert_eq!(
            plan.representative_of(f),
            None,
            "half[{bit}] survived the unread-bit drop"
        );
        assert!(plan.dropped().contains(&f));
    }

    // Accounting identity over the fixture.
    assert_eq!(
        plan.num_classes() + plan.collapsed_faults() + plan.dropped().len(),
        plan.total()
    );
    assert!(plan.collapsed_faults() > 0 && !plan.dropped().is_empty());

    // And the fixture still passes end-to-end parity.
    let clk = sig("clk");
    let input = sig("in");
    let mut sb = eraser::sim::StimulusBuilder::new();
    let mut x = 7u64;
    for _ in 0..40 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sb.add_cycle(
            clk,
            &[(input, eraser::logic::LogicVec::from_u64(4, x >> 30))],
        );
    }
    let stim = sb.finish();
    compare(
        "fixture",
        &design,
        &faults,
        &stim,
        &CampaignConfig {
            mode: RedundancyMode::Full,
            ..CampaignConfig::default()
        },
    );
}
