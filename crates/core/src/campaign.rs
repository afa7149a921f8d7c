//! One-call fault-simulation campaign driver.

use crate::batch::BatchConfig;
use crate::checkpoint::{CheckpointConfig, GoodRunArtifacts};
use crate::collapse::{run_collapsed, CollapseConfig};
use crate::engine::EraserEngine;
use crate::parallel::ParallelConfig;
use crate::progress::CampaignProgress;
use crate::schedule::{drain_plan, plan_campaign};
use crate::stats::RedundancyStats;
use crate::RedundancyMode;
use eraser_fault::{CoverageReport, FaultList};
use eraser_ir::{BatchProgram, Design, EvalBackend, TapeProgram};
use eraser_sim::Stimulus;

/// Campaign options. [`Default`] is a constant — full redundancy
/// elimination, fault dropping on, serial, checkpoint interval 0, batching
/// / collapsing off — and reads nothing from the process environment.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Redundancy-elimination mode (the ablation axis).
    pub mode: RedundancyMode,
    /// Stop simulating a fault once detected (fault dropping), as
    /// commercial tools do. Coverage is unaffected; runtime improves.
    pub drop_detected: bool,
    /// Fault-parallel execution: the worker-thread count. Serial by
    /// default; coverage is bit-identical at any thread count.
    pub parallel: ParallelConfig,
    /// The evaluation backend (spec key `eval`). No engine reads it: every
    /// RTL node runs on the one RTL evaluator, so coverage and counters
    /// are the same at either value. It is still parsed so that existing
    /// specs, journals and the benchmark keep working (see
    /// [`EvalBackend`]). [`EvalBackend::Tree`] by default.
    pub backend: EvalBackend,
    /// The checkpoint interval (spec key `checkpoint_interval`). No engine
    /// reads it: every engine starts every fault at step 0, so coverage
    /// and counters are the same at any interval. It is still parsed and
    /// validated so that existing specs, journals and the benchmark keep
    /// working (see [`CheckpointConfig`]). Disabled by default.
    pub checkpoint: CheckpointConfig,
    /// Bit-parallel fault batching: evaluate up to 64 fault candidates of a
    /// batchable RTL node in one word-parallel pass (PPSFP applied to the
    /// RTL plane). Disabled by default. Coverage and all semantic counters
    /// are bit-identical with batching on or off; the batch program is
    /// compiled once per campaign and shared across every fault-parallel
    /// shard worker.
    pub batch: BatchConfig,
    /// Static fault collapsing: fold equivalent faults into one
    /// representative and drop provably undetectable sites before any
    /// engine runs, then lift the representative records back over the
    /// full universe. Disabled by default. Coverage records are
    /// bit-identical with collapsing on or off; collapsing happens *before*
    /// planning, so fault-parallel campaigns group the representative
    /// list.
    pub collapse: CollapseConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            mode: RedundancyMode::Full,
            drop_detected: true,
            parallel: ParallelConfig::default(),
            backend: EvalBackend::default(),
            checkpoint: CheckpointConfig::default(),
            batch: BatchConfig::default(),
            collapse: CollapseConfig::default(),
        }
    }
}

/// The outcome of a campaign — what [`run_campaign`], the schedule's
/// drain and every [`FaultSimEngine`](crate::FaultSimEngine) return:
/// coverage plus the redundancy counters.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Detection records and the coverage metric.
    pub coverage: CoverageReport,
    /// Redundancy and timing counters. `time_total` is the aggregate
    /// compute time, engine construction included: the sum of the group
    /// walls, so
    /// [`RedundancyStats::behavioral_time_percent`] stays a meaningful
    /// compute-share at any thread count. Wall time of a campaign is what
    /// the caller measures around [`run_campaign`] or
    /// [`FaultSimEngine::run`](crate::FaultSimEngine::run).
    pub stats: RedundancyStats,
}

/// Resources a caller hands a campaign in place of what
/// [`run_campaign_with`] would otherwise build itself:
///
/// * a compiled batch program (`batch`) — filled only by the benchmark
///   under `/benchmark`, which compiles it in a call of its own so it can
///   time each layer apart from the campaign that uses it;
/// * a [`CampaignProgress`] block (`progress`), ticked per completed work
///   group for live status reporting — what the campaign service fills.
///
/// All fields default to `None` — [`run_campaign`] passes an empty
/// context. A populated context changes no result: coverage and semantic
/// counters are bit-identical to a run with an empty one, because both
/// build identical plans and engines from identical data.
#[derive(Default)]
pub struct CampaignContext<'a> {
    /// Ignored. Every RTL node runs on the one RTL evaluator, so a
    /// campaign has no use for a tape program ([`TapeProgram`] holds
    /// nothing); the field stays only while the benchmark still fills it.
    pub tapes: Option<&'a TapeProgram>,
    /// A pre-compiled bit-parallel batch program (used only when
    /// `config.batch` is enabled).
    pub batch: Option<&'a BatchProgram>,
    /// Ignored. A concurrent campaign records no good run and resumes
    /// from no snapshot, so it has no use for recorded artifacts
    /// ([`record_good_run`](crate::record_good_run)); the field stays only
    /// while the benchmark still fills it.
    pub good_run: Option<&'a GoodRunArtifacts>,
    /// Progress counters ticked as work groups complete.
    pub progress: Option<&'a CampaignProgress>,
}

/// Runs a complete fault-simulation campaign: replays the stimulus with
/// observation after every settle step, and returns coverage plus
/// statistics.
///
/// Every campaign is one plan drained by one queue (see the `schedule`
/// module docs), and a group costs one good-network pass, so the fault
/// universe is cut into exactly as many groups as `config.parallel` has
/// workers — equal contiguous chunks in id order (site-major, so faults
/// sharing a site share a group) executed by a scoped worker pool, one
/// independent engine per group, each stopping when its last fault is
/// detected; coverage — detections, first-detection steps and outputs —
/// is bit-identical to the serial run at any thread count. Merged stats
/// sum per-group counters and per-group walls (see
/// [`RedundancyStats::merge`] and [`CampaignResult::stats`]).
///
/// Every group engine starts at step 0: no engine reads
/// `config.checkpoint`.
///
/// Equivalent to [`run_campaign_with`] with an empty [`CampaignContext`].
pub fn run_campaign(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
) -> CampaignResult {
    run_campaign_with(
        design,
        faults,
        stimulus,
        config,
        &CampaignContext::default(),
    )
}

/// [`run_campaign`] with caller-supplied resources — see
/// [`CampaignContext`]. Anything the context does not supply is built
/// in-line exactly as [`run_campaign`] builds it, so results are
/// bit-identical regardless of what the context carries.
pub fn run_campaign_with(
    design: &Design,
    faults: &FaultList,
    stimulus: &Stimulus,
    config: &CampaignConfig,
    ctx: &CampaignContext<'_>,
) -> CampaignResult {
    // Static collapsing runs first: everything below — planning included —
    // sees only the representative list.
    run_collapsed(design, faults, &config.collapse, |faults| {
        // Bit-parallel fault batching: compile the design once and share
        // the immutable program with every worker — or reuse the caller's
        // pre-compiled copy.
        let owned_batch =
            (config.batch.enabled && ctx.batch.is_none()).then(|| BatchProgram::compile(design));
        let batch = if config.batch.enabled {
            ctx.batch.or(owned_batch.as_ref())
        } else {
            None
        };
        let threads = config.parallel.effective_threads();
        let plan = plan_campaign(faults, threads);
        // One concurrent engine per group, from step 0.
        drain_plan(&plan, threads, ctx.progress, |group| {
            let mut engine = EraserEngine::session(design, &group.list)
                .mode(config.mode)
                .drop_detected(config.drop_detected)
                .batch(batch)
                .start();
            engine.run(stimulus);
            (engine.coverage().clone(), engine.stats().clone())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_fault::{generate_faults, FaultListConfig};
    use eraser_frontend::compile;
    use eraser_logic::LogicVec;
    use eraser_sim::StimulusBuilder;

    fn counter_design() -> Design {
        compile(
            "module m(input wire clk, input wire rst, output reg [3:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 4'h0;
                 else q <= q + 4'h1;
               end
             endmodule",
            None,
        )
        .unwrap()
    }

    fn counter_stim(d: &Design, cycles: u64) -> eraser_sim::Stimulus {
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
        for _ in 0..cycles {
            sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 0))]);
        }
        sb.finish()
    }

    #[test]
    fn counter_faults_are_detected() {
        let d = counter_design();
        let faults = generate_faults(&d, &FaultListConfig::default());
        assert_eq!(faults.len(), 8); // q: 4 bits x 2 polarities
        let stim = counter_stim(&d, 20);
        let res = run_campaign(&d, &faults, &stim, &CampaignConfig::default());
        // Every stuck-at on a free-running counter's bits is observable.
        assert_eq!(
            res.coverage.detected(),
            8,
            "undetected: {:?}",
            res.coverage.undetected()
        );
    }

    #[test]
    fn all_modes_agree_on_coverage() {
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      output reg [3:0] q, output wire [3:0] w);
               reg [3:0] s;
               assign w = s ^ a;
               always @(posedge clk) begin
                 if (rst) begin s <= 4'h0; q <= 4'h0; end
                 else begin
                   if (a[0]) s <= s + 4'h1;
                   else s <= s ^ {2'b00, a[3:2]};
                   case (a[1:0])
                     2'd0: q <= s;
                     2'd1: q <= a;
                     default: q <= q + 4'h1;
                   endcase
                 end
               end
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let a = d.find_signal("a").unwrap();
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
        let mut x = 7u64;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sb.add_cycle(
                clk,
                &[
                    (rst, LogicVec::from_u64(1, 0)),
                    (a, LogicVec::from_u64(4, x >> 33)),
                ],
            );
        }
        let stim = sb.finish();
        let mut reports = Vec::new();
        for mode in [
            RedundancyMode::None,
            RedundancyMode::Explicit,
            RedundancyMode::Full,
        ] {
            let res = run_campaign(
                &d,
                &faults,
                &stim,
                &CampaignConfig {
                    mode,
                    drop_detected: true,
                    ..Default::default()
                },
            );
            reports.push((mode, res));
        }
        let (_, base) = &reports[0];
        for (mode, res) in &reports[1..] {
            assert!(
                base.coverage.same_detected_set(&res.coverage),
                "{mode} disagrees: base {} vs {}",
                base.coverage,
                res.coverage
            );
        }
        // Full mode must have skipped work the others executed.
        let full = &reports[2].1;
        assert!(full.stats.explicit_skipped > 0);
        assert!(full.stats.fault_executions < reports[0].1.stats.fault_executions);
    }

    #[test]
    fn implicit_redundancy_is_detected_and_skipped() {
        // Paper Fig. 3(b)-style: the fault flips a branch input (b) without
        // changing the decision's outcome, and its other differences are on
        // signals not read along the taken path.
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] c, input wire [3:0] g,
                      input wire [3:0] k, input wire [1:0] s, input wire [3:0] b,
                      output reg [3:0] r, output reg [3:0] a);
               wire [3:0] bmask;
               assign bmask = b & 4'h3;
               always @(posedge clk) begin
                 if (rst) begin r <= 4'h0; a <= 4'h0; end
                 else if (s == 2'd0) begin
                   r <= c + g;
                   a <= k;
                 end
                 else if (s == 2'd1) r <= 4'h0;
                 else begin
                   a <= 4'h0;
                   if (bmask == 4'h0) r <= r + 4'h1;
                   else r <= a ^ r;
                 end
               end
             endmodule",
            None,
        )
        .unwrap();
        // Faults on bmask: visible diffs into the behavioral node, but when
        // s == 0 the taken path reads only c, g, k -> implicit redundancy.
        let faults = generate_faults(
            &d,
            &FaultListConfig {
                include_inputs: false,
                ..Default::default()
            },
        );
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let s = d.find_signal("s").unwrap();
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
        for _ in 0..10 {
            sb.add_cycle(
                clk,
                &[
                    (rst, LogicVec::from_u64(1, 0)),
                    (s, LogicVec::from_u64(2, 0)),
                ],
            );
        }
        let stim = sb.finish();
        let full = run_campaign(
            &d,
            &faults,
            &stim,
            &CampaignConfig {
                mode: RedundancyMode::Full,
                drop_detected: false,
                ..Default::default()
            },
        );
        let expl = run_campaign(
            &d,
            &faults,
            &stim,
            &CampaignConfig {
                mode: RedundancyMode::Explicit,
                drop_detected: false,
                ..Default::default()
            },
        );
        assert!(
            full.stats.implicit_skipped > 0,
            "expected implicit redundancy to be found: {:?}",
            full.stats
        );
        assert!(full.stats.fault_executions < expl.stats.fault_executions);
        assert!(full.coverage.same_detected_set(&expl.coverage));
    }

    #[test]
    fn collapsed_campaign_matches_uncollapsed_bit_for_bit() {
        // Alias chain + dead wire: collapsing folds b/c faults and drops
        // dead's, yet every per-fault record must match the plain run.
        let d = compile(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] b;
               wire [3:0] c;
               wire [3:0] dead;
               assign b = a ^ 4'h6;
               assign c = b;
               assign dead = a & 4'h1;
               always @(posedge clk) q <= q + c;
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let clk = d.find_signal("clk").unwrap();
        let a = d.find_signal("a").unwrap();
        let mut sb = StimulusBuilder::new();
        for i in 0..24u64 {
            sb.add_cycle(clk, &[(a, LogicVec::from_u64(4, i * 7 % 16))]);
        }
        let stim = sb.finish();
        let run = |collapse| {
            run_campaign(
                &d,
                &faults,
                &stim,
                &CampaignConfig {
                    collapse,
                    ..CampaignConfig::default()
                },
            )
        };
        let plain = run(CollapseConfig::disabled());
        let collapsed = run(CollapseConfig::enabled());
        assert_eq!(plain.coverage, collapsed.coverage, "records diverged");
        assert_eq!(plain.stats.collapse_classes, 0);
        let s = &collapsed.stats;
        assert!(s.collapsed_faults > 0, "alias chain never folded: {s:?}");
        assert!(s.collapse_dropped >= 8, "dead wire kept: {s:?}");
        assert_eq!(
            s.collapse_classes + s.collapsed_faults + s.collapse_dropped,
            faults.len() as u64
        );
        // Fewer faults scheduled means strictly less fault work.
        assert!(s.fault_executions <= plain.stats.fault_executions);
    }

    #[test]
    fn collapsed_parallel_campaign_shards_representatives() {
        let d = counter_design();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let stim = counter_stim(&d, 20);
        let serial = run_campaign(&d, &faults, &stim, &CampaignConfig::default());
        let collapsed_parallel = run_campaign(
            &d,
            &faults,
            &stim,
            &CampaignConfig {
                collapse: CollapseConfig::enabled(),
                parallel: ParallelConfig::with_threads(4),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(serial.coverage, collapsed_parallel.coverage);
        assert!(collapsed_parallel.stats.collapse_classes > 0);
    }

    #[test]
    fn dropping_does_not_change_coverage() {
        let d = counter_design();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let stim = counter_stim(&d, 25);
        let keep = run_campaign(
            &d,
            &faults,
            &stim,
            &CampaignConfig {
                mode: RedundancyMode::Full,
                drop_detected: false,
                ..Default::default()
            },
        );
        let drop = run_campaign(&d, &faults, &stim, &CampaignConfig::default());
        assert!(keep.coverage.same_detected_set(&drop.coverage));
    }

    #[test]
    fn engine_stops_when_no_fault_is_left_alive() {
        // Every counter fault is detected within a few cycles. With
        // dropping on the engine must replay exactly `steps[..=k]`, k the
        // last first-detection step — the same deltas as a run over that
        // prefix alone — and report the coverage of the full replay.
        let d = counter_design();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let stim = counter_stim(&d, 60);
        let run = |stim: &eraser_sim::Stimulus, drop_detected| {
            let mut engine = EraserEngine::new(&d, &faults, RedundancyMode::Full, drop_detected);
            engine.run(stim);
            engine
        };
        let dropping = run(&stim, true);
        assert_eq!(dropping.live_faults(), 0);
        let k = faults
            .iter()
            .map(|f| dropping.coverage().detection(f.id).unwrap().step)
            .max()
            .unwrap();
        assert!(k + 1 < stim.steps.len(), "nothing left to trim after {k}");
        let prefix = stim.prefix(k + 1);
        assert_eq!(dropping.stats().deltas, run(&prefix, true).stats().deltas);
        // One step shorter, the last fault is still alive.
        let short = stim.prefix(k);
        assert!(run(&short, true).live_faults() > 0);
        // Dropping off: nothing dies, so the whole stimulus is replayed —
        // one good activation per clock cycle — with the same records.
        let keeping = run(&stim, false);
        assert_eq!(keeping.coverage(), dropping.coverage());
        assert_eq!(keeping.live_faults(), faults.len() as u64);
        assert_eq!(keeping.stats().good_activations, 61);
        assert!(keeping.stats().deltas > dropping.stats().deltas);
    }

    #[test]
    fn good_values_match_reference_simulator() {
        // The engine's good network must track the plain simulator exactly.
        let d = compile(
            "module m(input wire clk, input wire [3:0] a, output reg [7:0] acc,
                      output wire [7:0] dbl);
               assign dbl = acc + acc;
               always @(posedge clk) acc <= acc ^ {a, a};
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&d, &FaultListConfig::default());
        let clk = d.find_signal("clk").unwrap();
        let a = d.find_signal("a").unwrap();
        let acc = d.find_signal("acc").unwrap();
        let dbl = d.find_signal("dbl").unwrap();
        let mut sb = StimulusBuilder::new();
        for i in 0..16u64 {
            sb.add_cycle(clk, &[(a, LogicVec::from_u64(4, i * 5 % 16))]);
        }
        let stim = sb.finish();
        let mut engine = EraserEngine::new(&d, &faults, RedundancyMode::Full, true);
        let mut sim = eraser_sim::Simulator::new(&d);
        for step in &stim.steps {
            for (sig, v) in step {
                engine.set_input(*sig, v);
                sim.set_input(*sig, v);
            }
            engine.step();
            sim.step();
            assert_eq!(engine.good_value(acc), sim.value(acc));
            assert_eq!(engine.good_value(dbl), sim.value(dbl));
        }
    }
}
