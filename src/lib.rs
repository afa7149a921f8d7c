//! ERASER: efficient RTL fault simulation with trimmed execution redundancy.
//!
//! Umbrella crate re-exporting the full framework — a Rust reproduction of
//! the DATE 2025 paper "ERASER: Efficient RTL FAult Simulation Framework
//! with Trimmed Execution Redundancy":
//!
//! * [`logic`] — four-state values,
//! * [`ir`] — the RTL graph IR with CFG/VDG analyses,
//! * [`frontend`] — the Verilog-subset compiler,
//! * [`sim`] — the event-driven kernel and good simulator,
//! * [`fault`] — stuck-at fault model and coverage,
//! * [`core`] — the ERASER concurrent engine (the paper's contribution)
//!   and the engine-agnostic campaign API
//!   ([`FaultSimEngine`](core::FaultSimEngine), returning one
//!   [`CampaignResult`](core::CampaignResult) whatever the engine),
//! * [`baselines`] — IFsim / VFsim / CfSim comparison engines behind the
//!   same trait ([`all_engines`](baselines::all_engines) returns the full
//!   Fig. 6 line-up),
//! * [`netlist`] — zero-dependency Yosys-JSON netlist intake,
//! * [`designs`] — the ten-benchmark suite with stimuli and golden
//!   models, plus the [`designs::DesignSource`] layer that resolves
//!   benchmarks, external Verilog files, Yosys-JSON netlists, and the
//!   bundled gate-level fixtures into one campaign-ready bundle,
//! * [`service`] — the campaign service: a
//!   [`CampaignSpec`](core::CampaignSpec)-driven job queue with worker
//!   pool, pluggable result stores (in-memory or crash-recovering
//!   on-disk journal), and a dependency-free HTTP/JSON front end
//!   ([`service::HttpServer`]).
//!
//! # Quickstart
//!
//! ```
//! use eraser::core::{run_campaign, CampaignConfig, RedundancyMode};
//! use eraser::designs::Benchmark;
//! use eraser::fault::generate_faults;
//!
//! let design = Benchmark::Apb.build();
//! let faults = generate_faults(&design, &Benchmark::Apb.fault_config());
//! let stim = Benchmark::Apb.stimulus_with_cycles(&design, 60);
//! let result = run_campaign(&design, &faults, &stim, &CampaignConfig {
//!     mode: RedundancyMode::Full,
//!     drop_detected: true,
//!     ..Default::default()
//! });
//! println!("coverage: {}", result.coverage);
//! # assert!(result.coverage.detected() > 0);
//! ```
//!
//! # Parallel campaigns
//!
//! There is one way to fan out: a thread count. Every campaign is a
//! [plan](fault::FaultPlan) of fault groups drained by one scoped-thread
//! work queue, and the merged coverage is **bit-identical** to the serial
//! run at any thread count. Set
//! [`CampaignConfig::parallel`](core::CampaignConfig) (serial by
//! default); every engine honours it:
//!
//! ```
//! use eraser::core::{run_campaign, CampaignConfig, ParallelConfig};
//! use eraser::designs::Benchmark;
//! use eraser::fault::generate_faults;
//!
//! let design = Benchmark::Apb.build();
//! let faults = generate_faults(&design, &Benchmark::Apb.fault_config());
//! let stim = Benchmark::Apb.stimulus_with_cycles(&design, 60);
//! let serial = run_campaign(&design, &faults, &stim, &CampaignConfig::default());
//! let parallel = run_campaign(&design, &faults, &stim, &CampaignConfig {
//!     parallel: ParallelConfig::with_threads(4),
//!     ..CampaignConfig::default()
//! });
//! assert_eq!(serial.coverage, parallel.coverage); // bit-identical
//! ```
//!
//! # Comparing engines
//!
//! Every engine — ERASER in all three ablation modes and the three
//! baselines — is driven through the [`core::FaultSimEngine`] trait, so a
//! campaign can enumerate them against identical inputs and compare the
//! detected sets (the Table II criterion):
//!
//! ```
//! use eraser::baselines::all_engines;
//! use eraser::core::CampaignConfig;
//! use eraser::designs::Benchmark;
//! use eraser::fault::generate_faults;
//!
//! let design = Benchmark::Alu64.build();
//! let faults = generate_faults(&design, &Benchmark::Alu64.fault_config());
//! let stim = Benchmark::Alu64.stimulus_with_cycles(&design, 20);
//! let config = CampaignConfig::default();
//! let engines = all_engines();
//! let reference = engines[0].run(&design, &faults, &stim, &config).coverage;
//! for engine in &engines[1..] {
//!     let result = engine.run(&design, &faults, &stim, &config);
//!     assert!(reference.same_detected_set(&result.coverage), "{}", engine.name());
//! }
//! ```

pub use eraser_baselines as baselines;
pub use eraser_core as core;
pub use eraser_designs as designs;
pub use eraser_fault as fault;
pub use eraser_frontend as frontend;
pub use eraser_ir as ir;
pub use eraser_logic as logic;
pub use eraser_netlist as netlist;
pub use eraser_service as service;
pub use eraser_sim as sim;
