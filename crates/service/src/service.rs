//! The campaign service: a bounded job queue, a worker pool, and a
//! result store.
//!
//! # Lifecycle
//!
//! [`submit`](ServiceHandle::submit) validates nothing beyond what the
//! [`CampaignSpec`] parser already did — design resolution happens on a
//! worker, so a bad design name fails the *job*, not the submission —
//! answers a repeat from the store (below) and otherwise enqueues the
//! spec, returning a service-assigned id (`"c1"`, `"c2"`, ...). Jobs run
//! FIFO across `workers` threads; the queue is bounded and a full queue
//! rejects the submission ([`SubmitError::QueueFull`], HTTP 503 at the
//! server layer).
//!
//! # A worker is a pure function of its spec
//!
//! A worker makes the calls the CLI's `run` makes — [`prepare_spec`],
//! [`CampaignSpec::resolve`], [`run_campaign_with`] — with no lock held
//! and stores the [`CampaignRecord`]. Coverage and semantic counters are
//! bit-identical to a direct library call (`tests/http_e2e.rs` asserts
//! exactly this end to end).
//!
//! So a repeat need not run. `submit` looks the spec's canonical JSON
//! ([`CampaignSpec::to_json`]) up in a memo of the specs this service ran
//! to `Done`. A hit stores a copy of that record under the new id, with
//! `cache_hit` true and `good_run_steps` 0, and is `Done` before `submit`
//! returns: nothing is queued or run, and a full queue does not reject it.
//! Three rules keep the memo exact and small:
//!
//! 1. Only `benchmark` and `fixture` designs are memoized; their text is
//!    compiled into the binary. A `path` design's file can change between
//!    two submissions, so it always runs.
//! 2. The memo starts empty with the service. Records replayed from a
//!    journal are still served by id but never reused, so a new binary
//!    never answers with an older binary's result.
//! 3. The memo holds spec text and ids only — no design, program,
//!    stimulus or good run — and has no knob and no eviction. A worker adds
//!    an entry only once its record's `put` succeeded, so entries never
//!    outnumber the records this service stored and a failed job is never
//!    a source. Two identical specs in flight at once both run.

use crate::record::CampaignRecord;
use crate::store::{ResultStore, StoreError};
use eraser_core::{
    is_windowed, run_campaign_with, CampaignContext, CampaignProgress, CampaignSpec, DesignRef,
    ProgressSnapshot,
};
use eraser_designs::{Benchmark, DesignSource};
use eraser_fault::{generate_faults, FaultList};
use eraser_sim::Stimulus;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded job queue is at capacity; retry later.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the record is in the result store.
    Done,
    /// Design resolution or execution failed, with the message.
    Failed(String),
}

impl JobStatus {
    /// The wire name (`queued` / `running` / `done` / `failed`).
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// A point-in-time status of one campaign, for `GET /campaigns/:id`.
#[derive(Debug, Clone)]
pub struct StatusView {
    /// The campaign id.
    pub id: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Scheduler progress (window groups / fault shards completed).
    pub progress: ProgressSnapshot,
}

/// One tracked job.
struct Job {
    spec: CampaignSpec,
    status: JobStatus,
    progress: Arc<CampaignProgress>,
}

/// Queue + job table + memo, under one lock.
#[derive(Default)]
struct State {
    queue: VecDeque<String>,
    jobs: HashMap<String, Job>,
    order: Vec<String>,
    next_id: u64,
    /// Memo key → id of a `Done` record this service stored.
    memo: HashMap<String, String>,
}

/// The spec's memo key (its canonical JSON), or `None` for a design read
/// from a file, which always runs.
fn memo_key(spec: &CampaignSpec) -> Option<String> {
    match spec.design {
        DesignRef::Benchmark(_) | DesignRef::Fixture(_) => Some(spec.to_json()),
        DesignRef::Path(_) => None,
    }
}

/// The fully resolved inputs of one campaign — what a caller of
/// [`run_campaign_with`] needs.
pub struct PreparedCampaign {
    /// The resolved design source (name, compiled design, fault config).
    pub source: DesignSource,
    /// The generated fault universe.
    pub faults: FaultList,
    /// The deterministic stimulus.
    pub stimulus: Stimulus,
}

/// Resolves a spec's design reference, fault universe, and stimulus —
/// the one spec→design resolution rule, shared by the service workers
/// and the CLI.
///
/// # Errors
///
/// Unknown benchmark/fixture names, file load and import failures, and
/// clock-detection failures, as text.
pub fn prepare_spec(spec: &CampaignSpec) -> Result<PreparedCampaign, String> {
    let source = resolve_source(spec)?;
    let faults = generate_faults(source.design(), source.fault_config());
    let stimulus = source.stimulus();
    Ok(PreparedCampaign {
        source,
        faults,
        stimulus,
    })
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    store: Mutex<Box<dyn ResultStore>>,
    queue_cap: usize,
    shutdown: AtomicBool,
}

/// The campaign service (see the module docs). Cloneable-by-`Arc` via
/// [`handle`](Self::handle); [`shutdown`](Self::shutdown) (also run on
/// drop) stops the workers, abandoning still-queued jobs.
pub struct CampaignService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// A shareable reference to a running service — what the HTTP layer's
/// connection threads hold.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl CampaignService {
    /// Starts a service draining jobs with `workers` threads over a
    /// bounded queue of `queue_cap` entries, persisting results to
    /// `store`. Both sizes are clamped to at least 1.
    ///
    /// Ids continue after the highest `c<N>` the store already holds, so a
    /// service restarted onto a journal never reissues — and overwrites —
    /// a replayed record's id.
    pub fn new(store: Box<dyn ResultStore>, workers: usize, queue_cap: usize) -> CampaignService {
        let next_id = store
            .ids()
            .iter()
            .filter_map(|id| id.strip_prefix('c')?.parse::<u64>().ok())
            .max()
            .unwrap_or(0);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id,
                ..State::default()
            }),
            work: Condvar::new(),
            store: Mutex::new(store),
            queue_cap: queue_cap.max(1),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        CampaignService { inner, workers }
    }

    /// A shareable handle for serving threads.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stops the workers: running jobs finish, queued jobs are abandoned
    /// (their status stays `Queued`).
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
impl CampaignService {
    /// Joins the workers but keeps accepting submissions: from here on
    /// nothing drains the queue, so a test sees `Queued` for certain.
    pub(crate) fn stop_workers(&mut self) {
        self.shutdown();
        self.inner.shutdown.store(false, Ordering::SeqCst);
    }
}

impl ServiceHandle {
    /// Submits a campaign, returning its id. A repeat of a spec this
    /// service ran is answered from the store and already `Done`; anything
    /// else is queued (see the module docs).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when a campaign that must run finds the
    /// queue at capacity, [`SubmitError::ShuttingDown`] after shutdown
    /// began.
    pub fn submit(&self, spec: CampaignSpec) -> Result<String, SubmitError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let key = memo_key(&spec);
        // Lock order: state, then store.
        let mut state = self.inner.state.lock().unwrap();
        let hit = key
            .and_then(|key| state.memo.get(&key))
            .and_then(|source| self.inner.store.lock().unwrap().get(source).ok().flatten());
        if hit.is_none() && state.queue.len() >= self.inner.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        state.next_id += 1;
        let id = format!("c{}", state.next_id);
        let status = match hit {
            None => JobStatus::Queued,
            Some(source) => {
                let copy = CampaignRecord {
                    id: id.clone(),
                    good_run_steps: 0,
                    cache_hit: true,
                    ..source
                };
                match self.inner.store.lock().unwrap().put(&copy) {
                    Ok(()) => JobStatus::Done,
                    Err(e) => JobStatus::Failed(e.to_string()),
                }
            }
        };
        let queued = status == JobStatus::Queued;
        state.jobs.insert(
            id.clone(),
            Job {
                spec,
                status,
                progress: Arc::new(CampaignProgress::new()),
            },
        );
        state.order.push(id.clone());
        if queued {
            state.queue.push_back(id.clone());
            drop(state);
            self.inner.work.notify_one();
        }
        Ok(id)
    }

    /// The status of campaign `id` — from the live job table, or (after a
    /// restart onto a journal store) from the persisted record, which is
    /// by definition `Done`.
    pub fn status(&self, id: &str) -> Option<StatusView> {
        let state = self.inner.state.lock().unwrap();
        if let Some(job) = state.jobs.get(id) {
            return Some(StatusView {
                id: id.to_string(),
                status: job.status.clone(),
                progress: job.progress.snapshot(),
            });
        }
        drop(state);
        let store = self.inner.store.lock().unwrap();
        store.get(id).ok().flatten().map(|_| StatusView {
            id: id.to_string(),
            status: JobStatus::Done,
            progress: ProgressSnapshot::default(),
        })
    }

    /// The persisted record of a completed campaign.
    ///
    /// # Errors
    ///
    /// Store I/O failures; an unknown or unfinished id is `Ok(None)`.
    pub fn result(&self, id: &str) -> Result<Option<CampaignRecord>, StoreError> {
        self.inner.store.lock().unwrap().get(id)
    }

    /// Every known campaign — live jobs in submission order, then
    /// store-only (pre-restart) records.
    pub fn list(&self) -> Vec<StatusView> {
        let state = self.inner.state.lock().unwrap();
        let mut out: Vec<StatusView> = state
            .order
            .iter()
            .filter_map(|id| {
                state.jobs.get(id).map(|job| StatusView {
                    id: id.clone(),
                    status: job.status.clone(),
                    progress: job.progress.snapshot(),
                })
            })
            .collect();
        let live: std::collections::HashSet<&String> = state.order.iter().collect();
        let store = self.inner.store.lock().unwrap();
        for id in store.ids() {
            if !live.contains(&id) {
                out.push(StatusView {
                    id,
                    status: JobStatus::Done,
                    progress: ProgressSnapshot::default(),
                });
            }
        }
        out
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (id, spec, progress) = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    let job = state.jobs.get_mut(&id).expect("queued job exists");
                    job.status = JobStatus::Running;
                    break (id, job.spec.clone(), Arc::clone(&job.progress));
                }
                state = inner.work.wait(state).unwrap();
            }
        };
        // A panicking engine must not take the worker down with it — the
        // job fails, the queue keeps draining.
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&id, &spec, &progress)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "campaign panicked".to_string());
                Err(format!("campaign panicked: {msg}"))
            });
        let status = match outcome {
            Ok(record) => {
                let stored = inner.store.lock().unwrap().put(&record);
                match stored {
                    Ok(()) => JobStatus::Done,
                    Err(e) => JobStatus::Failed(e.to_string()),
                }
            }
            Err(message) => JobStatus::Failed(message),
        };
        let key = memo_key(&spec).filter(|_| status == JobStatus::Done);
        let mut state = inner.state.lock().unwrap();
        if let Some(key) = key {
            state.memo.insert(key, id.clone());
        }
        if let Some(job) = state.jobs.get_mut(&id) {
            job.status = status;
        }
    }
}

/// Resolves a [`DesignRef`] into a [`DesignSource`], applying the spec's
/// top/clock/reset/seed/steps/max-faults knobs.
fn resolve_source(spec: &CampaignSpec) -> Result<DesignSource, String> {
    let mut source = match &spec.design {
        DesignRef::Benchmark(name) => {
            let bench = Benchmark::all()
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    let known: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
                    format!("unknown benchmark `{name}` (known: {})", known.join(", "))
                })?;
            DesignSource::benchmark(bench)
        }
        DesignRef::Fixture(name) => {
            let mut fixture = DesignSource::fixture(name).ok_or_else(|| {
                format!(
                    "unknown netlist fixture `{name}` (known: {})",
                    eraser_designs::NETLIST_FIXTURE_NAMES.join(", ")
                )
            })?;
            fixture.set_seed(spec.seed);
            fixture
        }
        DesignRef::Path(path) => DesignSource::load(
            Path::new(path),
            spec.top.as_deref(),
            spec.clock.as_deref(),
            spec.reset.as_deref(),
            spec.seed,
        )?,
    };
    if let Some(steps) = spec.steps {
        source.set_default_cycles(steps);
    }
    if let Some(max) = spec.max_faults {
        source.fault_config_mut().max_faults = Some(max);
    }
    Ok(source)
}

/// Executes one campaign: resolve, run, build the record.
fn run_job(
    id: &str,
    spec: &CampaignSpec,
    progress: &CampaignProgress,
) -> Result<CampaignRecord, String> {
    let prepared = prepare_spec(spec)?;
    let config = spec.resolve();
    let ctx = CampaignContext {
        progress: Some(progress),
        ..Default::default()
    };
    let result = run_campaign_with(
        prepared.source.design(),
        &prepared.faults,
        &prepared.stimulus,
        &config,
        &ctx,
    );
    let steps = prepared.stimulus.steps.len();
    let windowed = is_windowed(&config.checkpoint, &prepared.faults, &prepared.stimulus);
    Ok(CampaignRecord {
        id: id.to_string(),
        spec: spec.clone(),
        design_name: prepared.source.name().to_string(),
        num_faults: prepared.faults.len(),
        steps,
        good_run_steps: if windowed { steps as u64 } else { 0 },
        cache_hit: false,
        coverage: result.coverage,
        stats: result.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::stat_counters;
    use crate::store::MemStore;
    use eraser_core::RedundancyMode;
    use eraser_ir::EvalBackend;
    use std::time::Duration;

    fn wait_done(handle: &ServiceHandle, id: &str) -> JobStatus {
        for _ in 0..3000 {
            match handle.status(id).map(|v| v.status) {
                Some(JobStatus::Done) => return JobStatus::Done,
                Some(JobStatus::Failed(m)) => return JobStatus::Failed(m),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        panic!("campaign {id} did not finish");
    }

    fn checkpointed_apb() -> CampaignSpec {
        CampaignSpec::benchmark("APB")
            .steps(40)
            .threads(1)
            .checkpoint_interval(8)
            .backend(EvalBackend::Tree)
    }

    /// Records `a` and `b` agree in coverage, every counter, fault count
    /// and stimulus length.
    fn assert_same_result(a: &CampaignRecord, b: &CampaignRecord) {
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(stat_counters(&a.stats), stat_counters(&b.stats));
        assert_eq!((a.num_faults, a.steps), (b.num_faults, b.steps));
    }

    /// The records of campaigns `a` and `b` agree on everything but id and
    /// wall times, and both say their campaign ran its own good run.
    fn assert_same_campaign(handle: &ServiceHandle, a: &str, b: &str) {
        let [a, b] = [a, b].map(|id| handle.result(id).unwrap().unwrap());
        assert_same_result(&a, &b);
        for r in [a, b] {
            assert!(r.steps > 0 && r.good_run_steps == r.steps as u64);
            assert!(!r.cache_hit);
        }
    }

    #[test]
    fn unknown_design_fails_the_job_not_the_service() {
        let mut service = CampaignService::new(Box::new(MemStore::new()), 1, 4);
        let handle = service.handle();
        let id = handle
            .submit(CampaignSpec::benchmark("NoSuchBench"))
            .unwrap();
        match wait_done(&handle, &id) {
            JobStatus::Failed(msg) => assert!(msg.contains("NoSuchBench"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        // The worker survived: a valid campaign still runs to completion.
        let id2 = handle
            .submit(
                CampaignSpec::benchmark("APB")
                    .steps(20)
                    .threads(1)
                    .backend(EvalBackend::Tree),
            )
            .unwrap();
        assert_eq!(wait_done(&handle, &id2), JobStatus::Done);
        let record = handle.result(&id2).unwrap().unwrap();
        assert_eq!(record.design_name, "APB");
        assert!(record.num_faults > 0);
        service.shutdown();
    }

    #[test]
    fn queue_bound_rejects_when_full() {
        // No workers ever drain (workers=1 but we fill faster than a
        // 20-step campaign finishes is racy — instead use a queue of 1 and
        // stack a second submission immediately).
        let service = CampaignService::new(Box::new(MemStore::new()), 1, 1);
        let handle = service.handle();
        let long = CampaignSpec::benchmark("APB").steps(200).threads(1);
        // First submission may start running immediately (leaving the
        // queue empty) — keep stacking until one sits queued, then the
        // next must bounce.
        let mut bounced = false;
        for _ in 0..50 {
            match handle.submit(long.clone()) {
                Ok(_) => {}
                Err(SubmitError::QueueFull) => {
                    bounced = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(bounced, "queue bound never enforced");
    }

    /// The second of two identical submissions is `Done` when `submit`
    /// returns: the first record's result under a new id, marked as a hit
    /// that ran no good run. The first record is unchanged, and the memo
    /// names it alone.
    #[test]
    fn a_repeat_is_answered_from_the_store() {
        let service = CampaignService::new(Box::new(MemStore::new()), 1, 8);
        let handle = service.handle();
        let a = handle.submit(checkpointed_apb()).unwrap();
        assert_eq!(wait_done(&handle, &a), JobStatus::Done);
        let first = handle.result(&a).unwrap().unwrap();
        let b = handle.submit(checkpointed_apb()).unwrap();
        assert_eq!(handle.status(&b).unwrap().status, JobStatus::Done);
        let repeat = handle.result(&b).unwrap().unwrap();
        assert_same_result(&first, &repeat);
        assert_eq!(
            (repeat.id.as_str(), &repeat.spec),
            (b.as_str(), &first.spec)
        );
        assert!(repeat.cache_hit && repeat.good_run_steps == 0);
        assert!(!first.cache_hit && first.good_run_steps == first.steps as u64);
        assert_eq!(handle.result(&a).unwrap().unwrap(), first);
        let memo = service.inner.state.lock().unwrap().memo.clone();
        assert_eq!(memo, HashMap::from([(checkpointed_apb().to_json(), a)]));
    }

    /// A hit queues nothing and needs no worker, so a full queue that no
    /// worker drains does not reject it.
    #[test]
    fn a_hit_is_served_with_the_queue_full_and_no_worker_free() {
        let mut service = CampaignService::new(Box::new(MemStore::new()), 1, 1);
        let handle = service.handle();
        let done = handle.submit(checkpointed_apb()).unwrap();
        assert_eq!(wait_done(&handle, &done), JobStatus::Done);
        service.stop_workers();
        let miss = checkpointed_apb().seed(2);
        assert_eq!(
            handle
                .status(&handle.submit(miss.clone()).unwrap())
                .unwrap()
                .status,
            JobStatus::Queued
        );
        assert_eq!(handle.submit(miss), Err(SubmitError::QueueFull));
        let hit = handle
            .submit(checkpointed_apb())
            .expect("a hit is never rejected");
        assert_eq!(handle.status(&hit).unwrap().status, JobStatus::Done);
        assert!(handle.result(&hit).unwrap().unwrap().cache_hit);
    }

    /// The memo key is the whole spec: a spec one field away from a stored
    /// one runs.
    #[test]
    fn a_spec_differing_in_any_one_field_runs() {
        let service = CampaignService::new(Box::new(MemStore::new()), 2, 16);
        let handle = service.handle();
        let base = handle.submit(checkpointed_apb()).unwrap();
        assert_eq!(wait_done(&handle, &base), JobStatus::Done);
        let variants = [
            checkpointed_apb().seed(2),
            checkpointed_apb().steps(41),
            checkpointed_apb().threads(2),
            checkpointed_apb().checkpoint_interval(4),
            checkpointed_apb().max_faults(50),
            checkpointed_apb().backend(EvalBackend::Tape),
            checkpointed_apb().batch(true),
            checkpointed_apb().collapse(true),
            checkpointed_apb().mode(RedundancyMode::Explicit),
        ];
        let ids: Vec<String> = variants
            .into_iter()
            .map(|spec| handle.submit(spec).unwrap())
            .collect();
        for id in &ids {
            assert_eq!(wait_done(&handle, id), JobStatus::Done);
            let record = handle.result(id).unwrap().unwrap();
            assert!(!record.cache_hit, "{}", record.spec.to_json());
            assert_eq!(record.good_run_steps, record.steps as u64);
        }
    }

    /// A file can change between two submissions, so a `path` design
    /// always runs: a repeat runs, and a run after a rewrite sees the new
    /// file.
    #[test]
    fn a_path_design_repeat_runs() {
        let file = std::env::temp_dir().join(format!("eraser-memo-{}.v", std::process::id()));
        let spec = CampaignSpec::path(file.to_string_lossy())
            .steps(30)
            .threads(1);
        let service = CampaignService::new(Box::new(MemStore::new()), 1, 8);
        let handle = service.handle();
        let run = |width: u32| {
            let design = format!(
                "module acc(input wire clk, input wire rst, input wire [{m}:0] a, \
                 output reg [{m}:0] q);\n always @(posedge clk) begin if (rst) q <= {width}'d0; \
                 else q <= q + a; end\nendmodule\n",
                m = width - 1
            );
            std::fs::write(&file, design).unwrap();
            let id = handle.submit(spec.clone()).unwrap();
            assert_eq!(wait_done(&handle, &id), JobStatus::Done);
            handle.result(&id).unwrap().unwrap()
        };
        let (first, repeat, rewritten) = (run(4), run(4), run(8));
        let _ = std::fs::remove_file(&file);
        assert_same_result(&first, &repeat);
        assert!(rewritten.num_faults > first.num_faults);
        assert!(!first.cache_hit && !repeat.cache_hit && !rewritten.cache_hit);
    }

    /// A failed job stores no record, so it is never a memo source: the
    /// same bad spec fails again.
    #[test]
    fn a_failed_job_is_never_a_memo_source() {
        let service = CampaignService::new(Box::new(MemStore::new()), 1, 4);
        let handle = service.handle();
        for _ in 0..2 {
            let id = handle
                .submit(CampaignSpec::benchmark("NoSuchBench"))
                .unwrap();
            assert!(matches!(wait_done(&handle, &id), JobStatus::Failed(_)));
        }
        assert!(service.inner.state.lock().unwrap().memo.is_empty());
    }

    /// Two identical checkpointed specs in flight on two workers at once
    /// share nothing, so neither can disturb the other.
    #[test]
    fn identical_specs_on_two_workers_finish_with_equal_records() {
        let service = CampaignService::new(Box::new(MemStore::new()), 2, 8);
        let handle = service.handle();
        let a = handle.submit(checkpointed_apb()).unwrap();
        let b = handle.submit(checkpointed_apb()).unwrap();
        assert_eq!(wait_done(&handle, &a), JobStatus::Done);
        assert_eq!(wait_done(&handle, &b), JobStatus::Done);
        assert_same_campaign(&handle, &a, &b);
    }
}
