//! The concurrent fault simulation engine.
//!
//! # One module per phase (paper Fig. 4)
//!
//! [`EngineState::step`] below runs the phases in order, delta after
//! delta; each lives in its own file, next to its good-only lane.
//!
#![doc = include_str!("phases.md")]
//!
//! # Zero-allocation steady state
//!
//! The engine owns a [`Workspace`] of pooled buffers — fault-id lists,
//! fault-update batches, behavioral execution outcomes, activation records,
//! `LogicVec` temporaries — and every hot method works out of it. After a
//! few warm-up cycles the pools reach their steady sizes and a settle step
//! performs **zero heap allocations** on designs whose signals fit in 64
//! bits (the `LogicVec` inline representation): signal reads borrow through
//! [`ValueSource`], diff entries are updated in place via
//! [`DiffList::upsert_with`], and expression evaluation runs through the
//! scratch-arena `eval_expr_into` path.
//!
//! # Cost proportional to the faults visible at the node
//!
//! Most of a fault simulation *is* the good simulation, so where no fault
//! is visible the engine does what the good simulator does and nothing
//! more: each of the four phases has a *good-only lane* (table above)
//! ahead of its general path, ending in the one `commit_signal`.
//! Coverage, detection steps and every [`RedundancyStats`] counter are
//! the general path's by construction — a lane books exactly what the
//! general path would have booked with empty candidate sets.

mod behavioral;
mod commit;
mod edges;
mod rtl;
mod workspace;

use crate::diff::{DiffList, FaultView};
use crate::stats::RedundancyStats;
use crate::RedundancyMode;
use behavioral::LocalSites;
use eraser_fault::{CoverageReport, FaultId, FaultList};
use eraser_ir::analysis::activation_local_signals;
use eraser_ir::{
    BatchProgram, BehavioralId, Design, EvalBackend, RtlNodeId, SignalId, TapeProgram, ValueSource,
};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, SimSnapshot, Stimulus, ValueStore};
use std::time::Instant;
use workspace::{PendingNba, Pool, Workspace};

/// Bound on delta cycles per step (oscillation guard).
const DELTA_LIMIT: usize = 10_000;

/// The ERASER concurrent fault simulation engine.
///
/// Holds the good network state plus per-signal [`DiffList`]s for the whole
/// fault batch, and advances them together through the stimulus. See the
/// [crate docs](crate) for the step structure and
/// [`run_campaign`](crate::run_campaign) for the one-call driver.
///
/// The simulation state and the scratch `Workspace` are two fields, so
/// every hot method runs on the state with the workspace borrowed beside
/// it — nothing is moved out and back per call.
pub struct EraserEngine<'d> {
    state: EngineState<'d>,
    ws: Workspace,
}

/// Everything the engine simulates: the good network, the fault
/// differences on it, the event queues and the results so far.
struct EngineState<'d> {
    design: &'d Design,
    faults: &'d FaultList,
    mode: RedundancyMode,
    drop_detected: bool,
    /// The backend every node is evaluated on, for the good network and
    /// every fault view alike. Its tapes, if any, are compiled once per
    /// campaign and shared by reference across fault-parallel shard
    /// workers, or owned when constructed standalone.
    eval: Evaluator<'d>,
    /// Bit-parallel batch program when fault batching is enabled —
    /// compiled once per campaign and shared across shard workers.
    batch: Option<&'d BatchProgram>,

    good: ValueStore,
    diffs: Vec<DiffList>,
    /// Faults sited on each signal whose force is materialized as a diff —
    /// all of them but those on activation-local signals.
    site_faults: Vec<Vec<FaultId>>,
    /// Per behavioral node, the faults sited on the activation-local
    /// signals it reads ([`activation_local_signals`], `Full` mode only).
    /// No reader ever sees their force, so it is never materialized: the
    /// signal stays clean, and each good activation books the visible
    /// ones as implicitly skipped, exactly as Algorithm 1 would find them.
    local_sites: Vec<Vec<LocalSites>>,
    /// Live faults sited on each signal: `site_faults` minus the dropped
    /// ones, as a count. With an empty diff list it makes the signal
    /// [clean](Self::clean).
    site_live: Vec<u32>,
    alive: Vec<bool>,
    alive_count: u64,
    /// Per-fault stamp of the `commit_signal` call that last handled the
    /// fault; equal to `commit_epoch` means "handled by this call".
    commit_seen: Vec<u32>,
    commit_epoch: u32,

    rtl_dirty: Vec<bool>,
    rtl_queue: Vec<RtlNodeId>,
    beh_dirty: Vec<bool>,
    beh_queue: Vec<BehavioralId>,
    watch_changed: Vec<SignalId>,
    watch_flag: Vec<bool>,
    /// Dense already-on-the-worklist flags of `detect_edges`.
    edge_queued: Vec<bool>,

    edge_prev_good: Vec<LogicVec>,
    edge_prev_diffs: Vec<DiffList>,

    pending_nba: Vec<PendingNba>,
    nba_pool: Pool<PendingNba>,

    coverage: CoverageReport,
    stats: RedundancyStats,
    step_index: usize,
}

/// The engine constructor: one fluent surface over every axis.
///
/// Obtained from [`EraserEngine::session`]; every axis has a built-in
/// default (mode [`RedundancyMode::Full`], fault dropping on, tree
/// walker, batching off, power-on start) and a chainable setter.
/// [`start`](Self::start) builds the engine and performs the initial
/// evaluation.
///
/// ```text
/// // A campaign shard worker: shared programs, checkpoint resume.
/// let mut engine = EraserEngine::session(design, &group.list)
///     .mode(config.mode)
///     .drop_detected(config.drop_detected)
///     .tapes(tapes)
///     .batch(batch)
///     .resume_from(snapshot, start_step)
///     .start();
/// engine.run(stimulus); // replays only steps[start_step..]
/// ```
pub struct EngineSession<'d, 's> {
    design: &'d Design,
    faults: &'d FaultList,
    mode: RedundancyMode,
    drop_detected: bool,
    eval: Evaluator<'d>,
    batch: Option<&'d BatchProgram>,
    resume: Option<(&'s SimSnapshot, usize)>,
}

impl<'d, 's> EngineSession<'d, 's> {
    /// The redundancy-elimination mode (default [`RedundancyMode::Full`]).
    pub fn mode(mut self, mode: RedundancyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether detected faults stop simulating (default `true`).
    pub fn drop_detected(mut self, drop_detected: bool) -> Self {
        self.drop_detected = drop_detected;
        self
    }

    /// Pins the evaluation backend, compiling a private tape program for
    /// [`EvalBackend::Tape`]. Default: the tree walker.
    pub fn backend(mut self, backend: EvalBackend) -> Self {
        self.eval = Evaluator::for_backend(self.design, backend);
        self
    }

    /// Pins the evaluation tapes to a shared pre-compiled program (`None`
    /// pins the tree walker) — what the campaign drivers hand every shard
    /// worker so the design is lowered once per campaign.
    pub fn tapes(mut self, tapes: Option<&'d TapeProgram>) -> Self {
        self.eval = Evaluator::shared(self.design, tapes);
        self
    }

    /// Pins bit-parallel fault batching to a shared pre-compiled program
    /// (`None`, the default, disables batching).
    pub fn batch(mut self, batch: Option<&'d BatchProgram>) -> Self {
        self.batch = batch;
        self
    }

    /// Starts the engine **from a good-state checkpoint** instead of
    /// power-on: the good network restores `snapshot` (the settled
    /// fault-free state before stimulus step `start_step`), the stuck-at
    /// forces are materialized against the restored values, and the engine
    /// settles once — exactly the force-at-checkpoint injection of the
    /// checkpointed serial protocol, batched.
    /// [`run`](EraserEngine::run) then replays only `steps[start_step..]`.
    ///
    /// Sound when every fault in the batch is restart-eligible at this
    /// checkpoint ([`eraser_fault::ActivationWindows::eligible_start`]):
    /// each fault's network at the checkpoint then equals its from-zero
    /// state, so detections (steps and outputs included) are bit-identical
    /// to a from-zero run. The window planner
    /// ([`eraser_fault::WindowPlan`]) cuts shards with exactly this
    /// property.
    pub fn resume_from(mut self, snapshot: &'s SimSnapshot, start_step: usize) -> Self {
        self.resume = Some((snapshot, start_step));
        self
    }

    /// Builds the engine and performs the initial evaluation.
    pub fn start(self) -> EraserEngine<'d> {
        EraserEngine::build(self)
    }
}

impl<'d> EraserEngine<'d> {
    /// Opens the engine constructor: an [`EngineSession`] over `design`
    /// and the fault batch `faults`, with every axis at its built-in
    /// default. Chain setters, then
    /// [`start`](EngineSession::start).
    pub fn session<'s>(design: &'d Design, faults: &'d FaultList) -> EngineSession<'d, 's> {
        EngineSession {
            design,
            faults,
            mode: RedundancyMode::Full,
            drop_detected: true,
            eval: Evaluator::tree(design),
            batch: None,
            resume: None,
        }
    }

    /// Creates an engine over `design` with the fault batch `faults`, in
    /// redundancy mode `mode`, on the tree walker with batching off, and
    /// performs the initial evaluation; use [`EraserEngine::session`] for
    /// the other axes.
    pub fn new(
        design: &'d Design,
        faults: &'d FaultList,
        mode: RedundancyMode,
        drop_detected: bool,
    ) -> Self {
        Self::session(design, faults)
            .mode(mode)
            .drop_detected(drop_detected)
            .start()
    }

    fn build(session: EngineSession<'d, '_>) -> Self {
        let EngineSession {
            design,
            faults,
            mode,
            drop_detected,
            eval,
            batch,
            resume,
        } = session;
        let n_sig = design.num_signals();
        let local = match mode {
            RedundancyMode::Full => activation_local_signals(design),
            RedundancyMode::Explicit | RedundancyMode::None => vec![false; n_sig],
        };
        let mut locals: Vec<Option<LocalSites>> = design
            .signals()
            .iter()
            .enumerate()
            .map(|(i, s)| local[i].then(|| LocalSites::new(SignalId::from_index(i), s.width)))
            .collect();
        let mut site_faults: Vec<Vec<FaultId>> = vec![Vec::new(); n_sig];
        for f in faults.iter() {
            let si = f.signal.index();
            if !locals[si].as_mut().is_some_and(|l| l.claim(f)) {
                site_faults[si].push(f.id);
            }
        }
        // A local signal has one reader, its writer, so each moves once.
        let local_sites = design
            .behavioral_nodes()
            .iter()
            .map(|node| {
                node.reads
                    .iter()
                    .filter_map(|s| locals[s.index()].take())
                    .filter(|l| !l.is_empty())
                    .collect()
            })
            .collect();
        let good = ValueStore::new(design);
        let edge_prev_good = design
            .signals()
            .iter()
            .map(|s| LogicVec::new_x(s.width))
            .collect();
        // Pre-size each signal's diff list from its sited fault count —
        // the guaranteed-resident entries.
        let diffs = site_faults
            .iter()
            .map(|v| DiffList::with_capacity(v.len()))
            .collect();
        let site_live = site_faults.iter().map(|v| v.len() as u32).collect();
        let mut state = EngineState {
            design,
            faults,
            mode,
            drop_detected,
            eval,
            batch,
            good,
            diffs,
            site_faults,
            local_sites,
            site_live,
            alive: vec![true; faults.len()],
            alive_count: faults.len() as u64,
            commit_seen: vec![0; faults.len()],
            commit_epoch: 0,
            rtl_dirty: vec![false; design.rtl_nodes().len()],
            rtl_queue: Vec::new(),
            beh_dirty: vec![false; design.behavioral_nodes().len()],
            beh_queue: Vec::new(),
            watch_changed: Vec::new(),
            watch_flag: vec![false; n_sig],
            edge_queued: vec![false; design.behavioral_nodes().len()],
            edge_prev_good,
            edge_prev_diffs: vec![DiffList::new(); n_sig],
            pending_nba: Vec::new(),
            nba_pool: Pool::default(),
            coverage: CoverageReport::new(faults.len()),
            stats: RedundancyStats::default(),
            step_index: 0,
        };
        let mut ws = Workspace::default();
        // Checkpoint resume: load the settled good values before any force
        // materializes. `edge_prev_good` initializes from the *values*, not
        // the snapshot's own edge memory — at any settle point the engine
        // invariant is `edge_prev_good[sig] == good[sig]` for every watched
        // signal (`detect_edges` latches it on every change), so the
        // restored values are exactly the edge state a from-zero run would
        // carry here, independent of the capturing simulator's internals.
        if let Some((snap, start)) = resume {
            state.good.restore_from_slice(&snap.values);
            for (prev, v) in state.edge_prev_good.iter_mut().zip(&snap.values) {
                prev.assign_from(v);
            }
            state.step_index = start;
        }
        // Initial state: materialize the stuck-at forces against the
        // power-on values (all-X, or the restored checkpoint), then
        // evaluate everything once.
        for sig in 0..n_sig {
            let id = SignalId::from_index(sig);
            if !state.site_faults[sig].is_empty() {
                let mut v = ws.bufs.take_for(design.signal(id).width);
                v.assign_from(state.good.get(id));
                state.commit_signal(&mut ws, id, &v, &[], true);
                ws.bufs.put(v);
            }
        }
        for i in 0..design.rtl_nodes().len() {
            state.mark_rtl(RtlNodeId::from_index(i));
        }
        for (i, b) in design.behavioral_nodes().iter().enumerate() {
            if !b.sensitivity.is_edge() {
                state.mark_beh(BehavioralId::from_index(i));
            }
        }
        state.step(&mut ws);
        EraserEngine { state, ws }
    }

    /// The coverage accumulated so far.
    pub fn coverage(&self) -> &CoverageReport {
        &self.state.coverage
    }

    /// The redundancy instrumentation counters.
    pub fn stats(&self) -> &RedundancyStats {
        &self.state.stats
    }

    /// The good value of a signal.
    pub fn good_value(&self, sig: SignalId) -> &LogicVec {
        self.state.good.get(sig)
    }

    /// The value of `sig` as seen by `fault`.
    ///
    /// In [`RedundancyMode::Full`] a fault sited on an activation-local
    /// signal ([`activation_local_signals`]) sees the good value there: no
    /// reader ever sees its force, so the engine never materializes it.
    /// Every other value equals a serial simulation with the force.
    pub fn fault_value(&self, sig: SignalId, fault: FaultId) -> LogicVec {
        FaultView::new(&self.state.diffs, &self.state.good, fault)
            .value(sig)
            .clone()
    }

    /// Number of faults still being simulated.
    pub fn live_faults(&self) -> u64 {
        self.state.alive_count
    }

    /// Drives a primary input, by borrow — no clone, no resize for
    /// width-matching values. An unchanged value is skipped outright:
    /// committing an identical good value re-derives exactly the same
    /// forced entries and diff state (faults sited on the input keep their
    /// materialized stuck-bit diff entries from construction), so there is
    /// nothing to schedule.
    pub fn set_input(&mut self, sig: SignalId, value: &LogicVec) {
        self.state.set_input(&mut self.ws, sig, value);
    }

    /// Runs the stimulus from the engine's **current step index** with
    /// observation (and optional fault dropping) after every settle step.
    /// A freshly built engine stands at step 0 and replays everything; a
    /// checkpoint-resumed engine ([`EngineSession::resume_from`]) already
    /// stands at its start step and replays only the suffix — one run
    /// semantics for both, so campaign drivers need no per-origin branch.
    /// Stimulus values are read by borrow — the whole campaign loop is
    /// clone-free.
    ///
    /// With fault dropping on, the run **stops as soon as no fault is left
    /// alive**: every fault of the batch has its first detection recorded,
    /// nothing later can change the coverage, and settling the good
    /// network to the end of the stimulus would be work no fault needs.
    /// With dropping off the whole stimulus is always replayed.
    pub fn run(&mut self, stim: &Stimulus) {
        let (state, ws) = (&mut self.state, &mut self.ws);
        let at = state.step_index.min(stim.steps.len());
        for step in &stim.steps[at..] {
            if state.drop_detected && state.alive_count == 0 {
                return;
            }
            for (sig, val) in step {
                state.set_input(ws, *sig, val);
            }
            state.step(ws);
            state.observe(ws);
            state.step_index += 1;
        }
    }

    /// Settles the design (good network and all fault differences) to
    /// stability.
    ///
    /// # Panics
    ///
    /// Panics if the design does not settle within an internal delta bound.
    pub fn step(&mut self) {
        self.state.step(&mut self.ws);
    }

    /// Checks all observation points (primary outputs) for detectable
    /// good/fault mismatches; records detections and drops detected faults
    /// when configured.
    pub fn observe(&mut self) {
        self.state.observe(&mut self.ws);
    }
}

impl EngineState<'_> {
    /// True when no fault is visible on `sig`: its diff list is empty and
    /// no live fault is sited on it. A commit to a clean signal, an RTL
    /// node or behavioral activation whose signals are all clean, and an
    /// NBA block of good writes to a clean target each do exactly what the
    /// good simulator does — the four *good-only lanes* of `commit_signal`,
    /// `eval_rtl_concurrent`, `process_activation` and `commit_nba`. The
    /// predicate is read node by node, so the lanes switch on as dropping
    /// thins the live set.
    #[inline]
    fn clean(&self, sig: SignalId) -> bool {
        let si = sig.index();
        self.site_live[si] == 0 && self.diffs[si].is_empty()
    }

    /// One settle step — the Fig. 4 phases, delta after delta: the active
    /// region (`rtl.rs`), deferred edge detection (`edges.rs`), the
    /// activated behavioral nodes (`behavioral.rs`, blocking commits
    /// included) and the NBA commit (`commit.rs`), until nothing is
    /// scheduled.
    fn step(&mut self, ws: &mut Workspace) {
        for _ in 0..DELTA_LIMIT {
            self.stats.deltas += 1;
            self.settle_active(ws);
            let n_acts = self.detect_edges(ws);
            if n_acts > 0 {
                let t0 = Instant::now();
                let mut list = std::mem::take(&mut ws.act_list);
                for (id, act) in &list {
                    self.process_activation(ws, *id, act);
                }
                for (_, act) in list.drain(..) {
                    ws.acts.put(act);
                }
                ws.act_list = list;
                self.stats.time_behavioral += t0.elapsed();
            }
            let committed = self.commit_nba(ws);
            if !committed && n_acts == 0 && self.rtl_queue.is_empty() && self.beh_queue.is_empty() {
                return;
            }
        }
        panic!("design did not settle within {DELTA_LIMIT} delta cycles");
    }
}
