//! Engine comparison on a CPU workload: enumerates all four fault
//! simulators through the [`FaultSimEngine`](eraser::core::FaultSimEngine)
//! trait, runs them on the PicoRV32-style core against identical inputs,
//! timing each, checks they detect the identical fault set, and prints the
//! wall-clock comparison — a single-design slice of Fig. 6.
//!
//! Run with `cargo run --release --example cpu_fault_sim`.

use eraser::baselines::all_engines;
use eraser::core::CampaignConfig;
use eraser::designs::Benchmark;
use eraser::fault::generate_faults;
use std::time::Instant;

fn main() {
    let bench = Benchmark::PicoRv32;
    let design = bench.build();
    let faults = generate_faults(&design, &bench.fault_config());
    let stimulus = bench.stimulus(&design);
    println!(
        "{}: {} faults, {} stimulus steps",
        bench.name(),
        faults.len(),
        stimulus.num_steps()
    );

    let config = CampaignConfig::default();
    let runs: Vec<_> = all_engines()
        .iter()
        .map(|engine| {
            let t0 = Instant::now();
            let result = engine.run(&design, &faults, &stimulus, &config);
            (engine.name(), t0.elapsed().as_secs_f64(), result.coverage)
        })
        .collect();
    let (base_name, base, reference) = &runs[0];
    for (name, _, coverage) in &runs {
        assert!(
            reference.same_detected_set(coverage),
            "coverage parity violated: {base_name} reports {reference} but {name} reports {coverage}"
        );
    }
    println!("all engines agree: {reference}");
    println!();
    for (name, wall, _) in &runs {
        println!("{name:<8} {wall:>9.3}s  ({:>5.1}x vs IFsim)", base / wall);
    }
}
