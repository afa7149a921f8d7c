//! The engine-agnostic campaign API.
//!
//! Every fault simulator in the workspace — the ERASER concurrent engine in
//! all three ablation modes, and the IFsim / VFsim / CfSim baselines in
//! `eraser-baselines` — is driven through one polymorphic surface:
//!
//! * [`FaultSimEngine`] — the engine trait: a name and a
//!   `run(design, faults, stimulus, config)` entry point,
//! * [`EngineResult`] — the shared result schema (coverage, optional
//!   redundancy instrumentation, wall time),
//! * [`CampaignRunner`] — a campaign harness that binds one
//!   `(design, faults, stimulus, config)` tuple, captures timing uniformly
//!   for every engine, and checks cross-engine coverage parity (the
//!   Table II criterion).
//!
//! All engines share the same detection predicate
//! ([`eraser_fault::detectable_mismatch`]), observation points (primary
//! outputs after every stimulus step) and fault-dropping semantics, which
//! is what makes their [`EngineResult`]s directly comparable. New engines
//! plug in by implementing the trait; no caller changes.

use crate::campaign::{run_campaign_drained, CampaignConfig, CampaignContext};
use crate::stats::RedundancyStats;
use crate::RedundancyMode;
use eraser_fault::{CoverageReport, FaultList};
use eraser_ir::Design;
use eraser_sim::Stimulus;
use std::fmt;
use std::time::{Duration, Instant};

/// The shared result schema of one engine campaign — a row of the paper's
/// Fig. 6 / Table II.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Engine name (`Eraser`, `Eraser-`, `Eraser--`, `IFsim`, `VFsim`,
    /// `CfSim`).
    pub name: String,
    /// Detection records and the coverage metric.
    pub coverage: CoverageReport,
    /// Redundancy instrumentation, for engines built on the concurrent
    /// ERASER core; `None` for the serial baselines.
    pub stats: Option<RedundancyStats>,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// Worker threads the campaign actually ran with (1 = serial), as
    /// reported by the drain every engine honoring
    /// [`CampaignConfig::parallel`] runs on: never more than the plan has
    /// groups.
    pub threads: usize,
}

impl EngineResult {
    /// Creates a result with zero wall time (the campaign driver or
    /// [`CampaignRunner`] fills timing in).
    pub fn new(name: impl Into<String>, coverage: CoverageReport) -> Self {
        EngineResult {
            name: name.into(),
            coverage,
            stats: None,
            wall: Duration::ZERO,
            threads: 1,
        }
    }

    /// Attaches redundancy instrumentation.
    pub fn with_stats(mut self, stats: RedundancyStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Attaches a wall time.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = wall;
        self
    }

    /// Records the worker-thread count the campaign ran with.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl fmt::Display for EngineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} in {:.3}s",
            self.name,
            self.coverage,
            self.wall.as_secs_f64()
        )
    }
}

/// An RTL fault-simulation engine.
///
/// Implementations must share the framework-wide campaign semantics:
/// replay `stimulus` step by step, compare every primary output against the
/// fault-free run after each settle step with
/// [`eraser_fault::detectable_mismatch`], and record the first detection of
/// each fault. Engines may ignore configuration fields that do not apply to
/// them (e.g. the serial baselines always drop detected faults — coverage
/// is insensitive to dropping by construction).
pub trait FaultSimEngine {
    /// Display name, stable across runs (used as the key in reports).
    fn name(&self) -> String;

    /// Runs one complete campaign.
    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult;
}

/// The ERASER concurrent engine as a [`FaultSimEngine`].
///
/// The `mode` field selects the paper's ablation variant and *overrides*
/// the mode in the per-run [`CampaignConfig`] (so a heterogeneous engine
/// list can run under one shared config); all other configuration fields
/// are honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Eraser {
    /// Which redundancy-elimination layers are active.
    pub mode: RedundancyMode,
}

impl Eraser {
    /// Full ERASER: explicit + implicit redundancy elimination.
    pub fn full() -> Self {
        Eraser {
            mode: RedundancyMode::Full,
        }
    }

    /// Eraser-: explicit elimination only.
    pub fn explicit() -> Self {
        Eraser {
            mode: RedundancyMode::Explicit,
        }
    }

    /// Eraser--: no redundancy elimination.
    pub fn none() -> Self {
        Eraser {
            mode: RedundancyMode::None,
        }
    }

    /// One engine per ablation mode, in Fig. 7 order
    /// (`Eraser--`, `Eraser-`, `Eraser`).
    pub fn ablation() -> Vec<Box<dyn FaultSimEngine>> {
        vec![
            Box::new(Eraser::none()),
            Box::new(Eraser::explicit()),
            Box::new(Eraser::full()),
        ]
    }
}

impl FaultSimEngine for Eraser {
    fn name(&self) -> String {
        self.mode.to_string()
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        let t0 = Instant::now();
        let out = run_campaign_drained(
            design,
            faults,
            stimulus,
            &CampaignConfig {
                mode: self.mode,
                ..config.clone()
            },
            &CampaignContext::default(),
        );
        EngineResult::new(self.name(), out.coverage)
            .with_stats(out.stats)
            .with_wall(t0.elapsed())
            .with_threads(out.workers)
    }
}

/// A cross-engine coverage disagreement found by
/// [`CampaignRunner::check_parity`].
#[derive(Debug, Clone)]
pub struct ParityMismatch {
    /// Name and coverage of the baseline engine (first result).
    pub baseline: (String, String),
    /// Name and coverage of the disagreeing engine.
    pub other: (String, String),
}

impl fmt::Display for ParityMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage parity violated: {} reports {} but {} reports {}",
            self.baseline.0, self.baseline.1, self.other.0, self.other.1
        )
    }
}

impl std::error::Error for ParityMismatch {}

/// A campaign harness binding one `(design, faults, stimulus, config)`
/// tuple so any number of engines can be run against identical inputs with
/// uniform timing capture.
///
/// # Example
///
/// ```
/// use eraser_core::{CampaignRunner, Eraser, FaultSimEngine};
/// use eraser_fault::{generate_faults, FaultListConfig};
/// use eraser_frontend::compile;
/// use eraser_logic::LogicVec;
/// use eraser_sim::StimulusBuilder;
///
/// let design = compile(
///     "module dut(input wire clk, input wire rst, input wire [7:0] a,
///                 output reg [7:0] q);
///        always @(posedge clk) begin
///          if (rst) q <= 8'h00; else q <= q ^ a;
///        end
///      endmodule",
///     None,
/// )?;
/// let faults = generate_faults(&design, &FaultListConfig::default());
/// let clk = design.find_signal("clk").unwrap();
/// let rst = design.find_signal("rst").unwrap();
/// let a = design.find_signal("a").unwrap();
/// let mut sb = StimulusBuilder::new();
/// sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
/// for i in 0..24 {
///     sb.add_cycle(clk, &[
///         (rst, LogicVec::from_u64(1, 0)),
///         (a, LogicVec::from_u64(8, i * 29 % 256)),
///     ]);
/// }
/// let stim = sb.finish();
///
/// let runner = CampaignRunner::new(&design, &faults, &stim);
/// let results = runner.run_all(&Eraser::ablation());
/// CampaignRunner::check_parity(&results)?;
/// assert!(results.iter().all(|r| r.coverage.detected() > 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CampaignRunner<'a> {
    design: &'a Design,
    faults: &'a FaultList,
    stimulus: &'a Stimulus,
    config: CampaignConfig,
}

impl<'a> CampaignRunner<'a> {
    /// Creates a runner with the default [`CampaignConfig`].
    pub fn new(design: &'a Design, faults: &'a FaultList, stimulus: &'a Stimulus) -> Self {
        CampaignRunner {
            design,
            faults,
            stimulus,
            config: CampaignConfig::default(),
        }
    }

    /// Replaces the campaign configuration.
    pub fn with_config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the fault-parallel execution settings, keeping the rest of
    /// the configuration. Every engine honors
    /// [`CampaignConfig::parallel`] and fans its campaign out over worker
    /// threads; merged coverage stays bit-identical, so
    /// [`check_parity`](Self::check_parity) keeps working unchanged on the
    /// merged results.
    pub fn with_parallel(mut self, parallel: crate::ParallelConfig) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// The shared campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs one engine, overriding its self-reported wall time with a
    /// uniform external measurement (so engines are timed identically).
    pub fn run(&self, engine: &dyn FaultSimEngine) -> EngineResult {
        let t0 = Instant::now();
        let mut result = engine.run(self.design, self.faults, self.stimulus, &self.config);
        result.wall = t0.elapsed();
        result
    }

    /// Runs every engine in order against the identical inputs.
    pub fn run_all(&self, engines: &[Box<dyn FaultSimEngine>]) -> Vec<EngineResult> {
        engines.iter().map(|e| self.run(e.as_ref())).collect()
    }

    /// Checks that every result detects exactly the same fault set as the
    /// first (the Table II parity criterion). Detection steps may differ;
    /// the detected *set* may not.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParityMismatch`] found, naming both engines.
    pub fn check_parity(results: &[EngineResult]) -> Result<(), ParityMismatch> {
        let Some(base) = results.first() else {
            return Ok(());
        };
        for r in &results[1..] {
            if !base.coverage.same_detected_set(&r.coverage) {
                return Err(ParityMismatch {
                    baseline: (base.name.clone(), base.coverage.to_string()),
                    other: (r.name.clone(), r.coverage.to_string()),
                });
            }
        }
        Ok(())
    }
}
