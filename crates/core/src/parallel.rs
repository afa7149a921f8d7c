//! Fault-parallel campaign execution.
//!
//! ERASER's concurrent engine trims redundancy *within* one fault batch;
//! this module adds the orthogonal structural axis: the fault universe is
//! [partitioned](eraser_fault::FaultList::partition) into disjoint shards,
//! shards are executed on a pool of scoped OS threads pulling work
//! dynamically from a shared queue, and shard results are merged losslessly
//! ([`CoverageReport::merge`], [`RedundancyStats::merge`]). Because the
//! engine's per-fault semantics are independent of batch composition, the
//! merged coverage is bit-identical to a serial run — parallelism changes
//! wall time only, never results.
//!
//! Three entry points, all zero-dependency (`std::thread::scope`):
//!
//! * [`ParallelConfig`] — thread count + [`PartitionStrategy`] (serial by
//!   default), carried inside
//!   [`CampaignConfig`](crate::CampaignConfig) so every existing driver
//!   ([`run_campaign`](crate::run_campaign),
//!   [`CampaignRunner`](crate::CampaignRunner)) parallelizes without new
//!   plumbing,
//! * [`run_sharded`] — the generic shard scheduler, usable with any
//!   per-shard closure,
//! * [`Parallel`] — an adapter wrapping *any* [`FaultSimEngine`] into a
//!   fault-parallel engine that is itself a [`FaultSimEngine`], so the
//!   ERASER engine and all serial baselines parallelize through one code
//!   path.

use crate::api::{EngineResult, FaultSimEngine};
use crate::campaign::CampaignConfig;
use crate::collapse::run_collapsed;
use crate::stats::RedundancyStats;
use eraser_fault::{CoverageReport, FaultList, FaultShard, PartitionStrategy};
use eraser_ir::Design;
use eraser_sim::Stimulus;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many shards each worker thread gets on average. Oversubscription
/// lets fast workers steal queued shards from slow ones (dynamic load
/// balancing) without any per-fault synchronization.
const SHARDS_PER_THREAD: usize = 4;

/// Fault-parallel execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. `1` runs serially in the calling thread; `0` means
    /// auto (one worker per available hardware thread).
    pub threads: usize,
    /// How the fault universe is split into shards.
    pub strategy: PartitionStrategy,
}

impl ParallelConfig {
    /// Strictly serial execution — the default.
    pub fn serial() -> Self {
        ParallelConfig {
            threads: 1,
            strategy: PartitionStrategy::default(),
        }
    }

    /// `threads` workers with the default (site-affinity) strategy.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            strategy: PartitionStrategy::default(),
        }
    }

    /// The concrete worker count: `threads`, with `0` resolved to the
    /// available hardware parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// True if campaigns under this config fan out over worker threads.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }

    /// Number of shards to split a universe of `num_faults` into:
    /// oversubscribed relative to the worker count for dynamic balancing,
    /// but never more shards than faults (and at least one).
    pub fn shard_count(&self, num_faults: usize) -> usize {
        (self.effective_threads() * SHARDS_PER_THREAD)
            .min(num_faults)
            .max(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::serial()
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} thread{} / {}",
            self.effective_threads(),
            if self.effective_threads() == 1 {
                ""
            } else {
                "s"
            },
            self.strategy
        )
    }
}

/// Runs `work` over every item on `threads` scoped worker threads pulling
/// item indices dynamically from a shared queue, and returns the results
/// in item order.
///
/// The queue is a single atomic cursor over the item slice: idle workers
/// claim the next unclaimed item, so a worker stuck on a heavy item never
/// blocks the rest of the queue (work stealing without per-item locks).
/// With one thread (or one item) everything runs inline in the caller —
/// the serial execution is the *same code path* over the same items,
/// which is what makes thread count a pure wall-clock axis for every
/// driver built on this queue. Items are generic: plain
/// [`FaultShard`]s ([`run_sharded`]) and the window-aware
/// [`WindowShard`](eraser_fault::WindowShard)s of the composed
/// checkpointed campaign both schedule through here, so the queue trades
/// off across both parallelism dimensions — whole window groups first,
/// their intra-group chunks when a group dominates.
pub fn run_queue<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = work(item);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker completed every claimed item")
        })
        .collect()
}

/// [`run_queue`] over plain fault shards — the historical entry point of
/// the fault-parallel dimension.
pub fn run_sharded<R, F>(shards: &[FaultShard], threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(&FaultShard) -> R + Sync,
{
    run_queue(shards, threads, work)
}

/// Merges per-shard engine results into one global coverage report plus
/// summed stats (when any shard carries them), via the single reduction
/// rule [`FaultShard::merge_coverage_into`] — O(shard size) per shard. The
/// caller stamps the name and wall time.
pub fn merge_shard_results(
    shards: &[FaultShard],
    results: &[EngineResult],
    total_faults: usize,
) -> (CoverageReport, Option<RedundancyStats>) {
    let mut coverage = CoverageReport::new(total_faults);
    let mut stats: Option<RedundancyStats> = None;
    for (shard, result) in shards.iter().zip(results) {
        shard.merge_coverage_into(&result.coverage, &mut coverage);
        if let Some(s) = &result.stats {
            stats.get_or_insert_with(RedundancyStats::default).merge(s);
        }
    }
    (coverage, stats)
}

/// Wraps any [`FaultSimEngine`] into a fault-parallel engine.
///
/// `Parallel<E>` is itself a [`FaultSimEngine`]: it partitions the fault
/// universe per its [`ParallelConfig`], runs the inner engine on each shard
/// across the worker pool (with the inner campaign forced serial so
/// parallelism never nests), and merges the shard results. Works uniformly
/// for the ERASER engine in every ablation mode and for the serial
/// baselines.
///
/// # Example
///
/// ```
/// use eraser_core::{CampaignConfig, Eraser, FaultSimEngine, Parallel, ParallelConfig};
/// use eraser_fault::{generate_faults, FaultListConfig};
/// use eraser_frontend::compile;
/// use eraser_logic::LogicVec;
/// use eraser_sim::StimulusBuilder;
///
/// let design = compile(
///     "module dut(input wire clk, input wire [7:0] a, output reg [7:0] q);
///        always @(posedge clk) q <= q ^ a;
///      endmodule",
///     None,
/// )?;
/// let faults = generate_faults(&design, &FaultListConfig::default());
/// let clk = design.find_signal("clk").unwrap();
/// let a = design.find_signal("a").unwrap();
/// let mut sb = StimulusBuilder::new();
/// for i in 0..24 {
///     sb.add_cycle(clk, &[(a, LogicVec::from_u64(8, i * 31 % 256))]);
/// }
/// let stim = sb.finish();
///
/// let serial = Eraser::full().run(&design, &faults, &stim, &CampaignConfig::serial());
/// let parallel = Parallel::new(Eraser::full(), ParallelConfig::with_threads(4))
///     .run(&design, &faults, &stim, &CampaignConfig::serial());
/// // Bit-identical coverage — detections, steps and outputs.
/// assert_eq!(serial.coverage, parallel.coverage);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Parallel<E> {
    /// The engine run on each shard.
    pub inner: E,
    /// Worker count and partition strategy.
    pub config: ParallelConfig,
}

impl<E> Parallel<E> {
    /// Wraps `inner` with the given parallel configuration.
    pub fn new(inner: E, config: ParallelConfig) -> Self {
        Parallel { inner, config }
    }
}

impl<E: FaultSimEngine + Sync> FaultSimEngine for Parallel<E> {
    fn name(&self) -> String {
        format!("{} p{}", self.inner.name(), self.config.effective_threads())
    }

    fn run(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        // Static collapsing runs before partitioning, so the shards below
        // are cut from the representative list (and the inner campaigns,
        // already forced serial, never collapse again).
        run_collapsed(design, faults, config, |faults, config| {
            self.run_shards(design, faults, stimulus, config)
        })
    }
}

impl<E: FaultSimEngine + Sync> Parallel<E> {
    /// The uncollapsed fan-out: partition, run every shard on the worker
    /// pool, merge.
    fn run_shards(
        &self,
        design: &Design,
        faults: &FaultList,
        stimulus: &Stimulus,
        config: &CampaignConfig,
    ) -> EngineResult {
        let t0 = Instant::now();
        let threads = self.config.effective_threads();
        // Shard campaigns run serially inside their worker thread; the
        // adapter owns all parallelism.
        let inner_config = CampaignConfig {
            parallel: ParallelConfig::serial(),
            ..config.clone()
        };
        if threads <= 1 {
            let mut result = self.inner.run(design, faults, stimulus, &inner_config);
            result.name = self.name();
            result.wall = t0.elapsed();
            result.threads = 1;
            return result;
        }
        let mut shards =
            faults.partition(self.config.shard_count(faults.len()), self.config.strategy);
        // Don't pay a full stimulus replay for shards that hold no faults
        // (possible under site-affinity when faults cluster on few
        // signals); merging tolerates their absence.
        shards.retain(|s| !s.is_empty());
        let results = run_sharded(&shards, threads, |shard| {
            self.inner.run(design, &shard.list, stimulus, &inner_config)
        });
        let (coverage, stats) = merge_shard_results(&shards, &results, faults.len());
        let mut merged = EngineResult::new(self.name(), coverage)
            .with_wall(t0.elapsed())
            .with_threads(threads);
        merged.stats = stats;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignRunner, Eraser};
    use eraser_fault::{generate_faults, FaultListConfig};
    use eraser_frontend::compile;
    use eraser_logic::LogicVec;
    use eraser_sim::StimulusBuilder;

    fn fixture() -> (Design, FaultList, Stimulus) {
        let design = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      output reg [7:0] q, output wire [7:0] w);
               reg [7:0] s;
               assign w = s ^ {a, a};
               always @(posedge clk) begin
                 if (rst) begin s <= 8'h00; q <= 8'h00; end
                 else begin
                   s <= s + {4'h0, a};
                   if (a[0]) q <= q ^ s;
                   else q <= {q[6:0], q[7]};
                 end
               end
             endmodule",
            None,
        )
        .unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let clk = design.find_signal("clk").unwrap();
        let rst = design.find_signal("rst").unwrap();
        let a = design.find_signal("a").unwrap();
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(clk, &[(rst, LogicVec::from_u64(1, 1))]);
        let mut x = 11u64;
        for _ in 0..30 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sb.add_cycle(
                clk,
                &[
                    (rst, LogicVec::from_u64(1, 0)),
                    (a, LogicVec::from_u64(4, x >> 40)),
                ],
            );
        }
        let stim = sb.finish();
        (design, faults, stim)
    }

    #[test]
    fn run_sharded_preserves_shard_order() {
        let (_, faults, _) = fixture();
        let shards = faults.partition(9, PartitionStrategy::RoundRobin);
        let sizes = run_sharded(&shards, 4, |s| s.len());
        let expected: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, expected);
        assert_eq!(sizes.iter().sum::<usize>(), faults.len());
    }

    #[test]
    fn parallel_engine_matches_serial_bit_for_bit() {
        let (design, faults, stim) = fixture();
        let config = CampaignConfig::serial();
        let serial = Eraser::full().run(&design, &faults, &stim, &config);
        for strategy in PartitionStrategy::all() {
            for threads in [1, 2, 4, 7] {
                let par = Parallel::new(Eraser::full(), ParallelConfig { threads, strategy });
                let result = par.run(&design, &faults, &stim, &config);
                assert_eq!(
                    serial.coverage, result.coverage,
                    "{strategy} x{threads}: merged coverage diverged"
                );
                assert!(result.stats.is_some());
            }
        }
        assert!(serial.coverage.detected() > 0);
    }

    #[test]
    fn parallel_engines_pass_runner_parity() {
        let (design, faults, stim) = fixture();
        let runner =
            CampaignRunner::new(&design, &faults, &stim).with_config(CampaignConfig::serial());
        let engines: Vec<Box<dyn FaultSimEngine>> = vec![
            Box::new(Eraser::full()),
            Box::new(Parallel::new(
                Eraser::full(),
                ParallelConfig::with_threads(3),
            )),
            Box::new(Parallel::new(
                Eraser::none(),
                ParallelConfig {
                    threads: 5,
                    strategy: PartitionStrategy::Contiguous,
                },
            )),
        ];
        let results = runner.run_all(&engines);
        CampaignRunner::check_parity(&results).expect("parallel results keep parity");
        assert_eq!(results[1].name, "Eraser p3");
    }

    #[test]
    fn empty_universe_runs_and_merges() {
        let (design, _, stim) = fixture();
        let faults = FaultList::default();
        let par = Parallel::new(Eraser::full(), ParallelConfig::with_threads(4));
        let result = par.run(&design, &faults, &stim, &CampaignConfig::serial());
        assert_eq!(result.coverage.total(), 0);
        assert_eq!(result.coverage.coverage_percent(), 100.0);
    }

    #[test]
    fn config_accessors() {
        let cfg = ParallelConfig::with_threads(3);
        assert!(cfg.is_parallel());
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.shard_count(5), 5);
        assert_eq!(cfg.shard_count(1000), 12);
        assert_eq!(cfg.shard_count(0), 1);
        assert!(!ParallelConfig::serial().is_parallel());
        assert!(ParallelConfig::with_threads(0).effective_threads() >= 1);
        assert_eq!(
            ParallelConfig::serial().to_string(),
            "1 thread / site-affinity"
        );
    }
}
