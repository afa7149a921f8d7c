//! The ERASER concurrent RTL fault simulation engine.
//!
//! This crate is the paper's primary contribution: a *batched* (concurrent)
//! RTL fault simulator that eliminates redundant executions of behavioral
//! nodes — both **explicit** redundancy (the faulty inputs equal the good
//! inputs; classic concurrent fault simulation skips these by construction)
//! and **implicit** redundancy (the faulty inputs differ, yet neither any
//! branch decision nor any signal read on the actually-taken execution path
//! is affected, so the result is provably identical — Algorithm 1 of the
//! paper).
//!
//! # Architecture (paper Fig. 4)
//!
//! The engine keeps one good value per signal plus a per-signal **diff
//! list**: the visible "bad gate" values of each fault, stored only where
//! they differ from the good value ([`DiffList`]). Each simulation step
//! runs the phases below, delta after delta, until nothing is scheduled,
//! then observes the primary outputs; wherever no fault is visible a phase
//! costs what the good simulator charges (its *good-only lane*) — same
//! coverage, same counters.
//!
#![doc = include_str!("engine/phases.md")]
//!
//! # One schedule
//!
//! Every campaign — one thread or many, the concurrent engine or a serial
//! baseline — is a *plan* of fault groups drained by one work queue; see
//! the `schedule` module docs ([`plan_campaign`], [`drain_plan`]) and
//! [`eraser_fault::FaultPlan`]. Two knobs shape it:
//!
//! * [`ParallelConfig`] (spec key `threads`, CLI `--threads`) — the one
//!   way to fan out. A group costs one good-network pass, so the plan
//!   cuts exactly as many groups as there are workers, drained by a
//!   scoped-thread worker pool; merged coverage is bit-identical to the
//!   serial run at any thread count.
//!   Every [`FaultSimEngine`] honours [`CampaignConfig::parallel`]
//!   natively.
//! * [`CheckpointConfig`] (spec key `checkpoint_interval`) — read by no
//!   engine. Every engine starts every fault at step 0: the concurrent
//!   engine against one good network, as the paper's ERASER does, and the
//!   serial IFsim and VFsim baselines one fresh simulator per fault, as
//!   the paper's IFsim does. The key is still parsed and validated so
//!   that existing specs, journals and the benchmark keep working, and
//!   [`record_good_run`] (a plain good replay with a snapshot per
//!   boundary) stays for the benchmark's good-run probe.
//!
//! # Static fault collapsing
//!
//! [`CollapseConfig`] (spec key `collapse`, CLI `--collapse`) prunes the
//! *structural* axis before a single cycle runs: equivalence classes over
//! alias chains fold to one simulated representative each, and
//! provably undetectable sites (bits no reader observes, signals with no
//! influence path to any output) are dropped outright
//! ([`eraser_fault::CollapsedFaultList`]). Every driver collapses through
//! [`run_collapsed`] *before* planning, so the knob composes with
//! threads and batching, and the lifted
//! coverage is bit-identical to the uncollapsed run.
//! [`RedundancyStats::collapse_classes`],
//! [`RedundancyStats::collapsed_faults`] and
//! [`RedundancyStats::collapse_dropped`] account for the pruned universe.
//!
//! # Ablation modes
//!
//! [`RedundancyMode`] selects the paper's ablation variants: `None`
//! (Eraser‑‑, every live fault executes every activated behavioral node),
//! `Explicit` (Eraser‑), and `Full` (Eraser). All three produce identical
//! fault coverage; only the amount of skipped work differs, which
//! [`RedundancyStats`] quantifies (Table III, Fig. 1b, Fig. 7).
//!
//! # Example
//!
//! ```
//! use eraser_core::{run_campaign, CampaignConfig, RedundancyMode};
//! use eraser_fault::{generate_faults, FaultListConfig};
//! use eraser_frontend::compile;
//! use eraser_logic::LogicVec;
//! use eraser_sim::StimulusBuilder;
//!
//! let design = compile(
//!     "module dut(input wire clk, input wire [7:0] a, output reg [7:0] q);
//!        always @(posedge clk) q <= a + 8'h01;
//!      endmodule",
//!     None,
//! )?;
//! let faults = generate_faults(&design, &FaultListConfig::default());
//! let clk = design.find_signal("clk").unwrap();
//! let a = design.find_signal("a").unwrap();
//! let mut sb = StimulusBuilder::new();
//! for i in 0..32 {
//!     sb.add_cycle(clk, &[(a, LogicVec::from_u64(8, i * 37 % 256))]);
//! }
//! let result = run_campaign(
//!     &design,
//!     &faults,
//!     &sb.finish(),
//!     &CampaignConfig { mode: RedundancyMode::Full, ..Default::default() },
//! );
//! assert!(result.coverage.coverage_percent() > 90.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod api;
mod batch;
mod campaign;
mod checkpoint;
mod collapse;
mod diff;
mod engine;
mod monitor;
mod parallel;
mod progress;
mod schedule;
mod spec;
mod stats;

pub use api::{Eraser, FaultSimEngine};
pub use batch::BatchConfig;
pub use campaign::{
    run_campaign, run_campaign_with, CampaignConfig, CampaignContext, CampaignResult,
};
pub use checkpoint::{record_good_run, CheckpointConfig, GoodRunArtifacts};
pub use collapse::{collapse_plan, run_collapsed, CollapseConfig};
pub use diff::{union_ids_into, DiffList, FaultView};
pub use engine::{EngineSession, EraserEngine};
pub use monitor::RedundancyMonitor;
pub use parallel::ParallelConfig;
pub use progress::{CampaignProgress, ProgressSnapshot};
pub use schedule::{drain_plan, plan_campaign};
pub use spec::{CampaignSpec, DesignRef, SpecError};
pub use stats::RedundancyStats;

// The shareable batch program, the parsed `eval` key and the retired tape
// program, re-exported so campaign drivers need not name `eraser-ir`
// directly.
pub use eraser_ir::{BatchProgram, EvalBackend, TapeProgram};

/// Which redundancy-elimination layers are active — the paper's ablation
/// axis (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedundancyMode {
    /// Eraser--: no redundancy elimination; every live fault's behavioral
    /// code executes at every activation.
    None,
    /// Eraser-: explicit redundancy elimination only; a fault executes a
    /// behavioral node only if it has a visible difference on one of the
    /// node's inputs (or its activation diverges).
    Explicit,
    /// Eraser: explicit plus implicit redundancy elimination (Algorithm 1).
    #[default]
    Full,
}

impl std::fmt::Display for RedundancyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedundancyMode::None => write!(f, "Eraser--"),
            RedundancyMode::Explicit => write!(f, "Eraser-"),
            RedundancyMode::Full => write!(f, "Eraser"),
        }
    }
}

impl RedundancyMode {
    /// The machine-readable name used by [`CampaignSpec`] JSON and the
    /// CLI's `--mode` flag (`full` / `explicit` / `none`) — [`Display`]
    /// keeps the paper's ablation names (`Eraser` / `Eraser-` /
    /// `Eraser--`).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn spec_name(self) -> &'static str {
        match self {
            RedundancyMode::None => "none",
            RedundancyMode::Explicit => "explicit",
            RedundancyMode::Full => "full",
        }
    }
}

impl std::str::FromStr for RedundancyMode {
    type Err = String;

    /// Parses the machine-readable mode names (`full`, `explicit`,
    /// `none`), case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(RedundancyMode::Full),
            "explicit" => Ok(RedundancyMode::Explicit),
            "none" => Ok(RedundancyMode::None),
            other => Err(format!(
                "unknown redundancy mode `{other}` (expected full, explicit or none)"
            )),
        }
    }
}
