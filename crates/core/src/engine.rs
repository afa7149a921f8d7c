//! The concurrent fault simulation engine.
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
//! more. A signal is **clean** when its diff list is empty and no live
//! fault is sited on it (a per-signal count, decremented where `observe`
//! drops a fault). Each of the four phases has a *good-only lane* — an
//! early return decided by that one predicate, ahead of the general path
//! and ending in the one `commit_signal`:
//!
//! 1. `commit_signal`: a clean target and no fault updates — compare,
//!    store, schedule fanout.
//! 2. `eval_rtl_concurrent`: every input and the output clean — the good
//!    evaluation, then lane 1; no candidate union, no update batch, on the
//!    scalar and the batch evaluator alike.
//! 3. `process_activation`: the good network fired with no suppressed
//!    fault, every signal the node reads or writes clean, and a mode that
//!    skips explicit redundancy (or no live fault) — every live fault is
//!    booked as an explicitly skipped opportunity, the body runs once
//!    unmonitored, blocking finals go through lane 1, NBA writes queue.
//! 4. `commit_nba`: a block of good writes only, on a target clean *at
//!    commit time* — fold the writes, then lane 1.
//!
//! The lanes are read node by node, not campaign by campaign: they switch
//! on as fault dropping thins the live set. Coverage, detection steps and
//! every [`RedundancyStats`] counter are the general path's by
//! construction — a lane books exactly what the general path would have
//! booked with empty candidate sets.

use crate::diff::{union_ids_into, DiffList};
use crate::monitor::RedundancyMonitor;
use crate::stats::RedundancyStats;
use crate::RedundancyMode;
use eraser_fault::{detectable_mismatch, BatchPlan, CoverageReport, Detection, FaultId, FaultList};
use eraser_ir::{
    run_batch, run_tape, tapes_for_backend, BatchProgram, BehavioralId, Design, EdgeKind,
    EvalBackend, EvalScratch, RtlNode, RtlNodeId, Sensitivity, SignalId, TapeProgram, TapeRef,
    TapeScratch, ValueSource,
};
use eraser_logic::{LanePlanes, LogicVec};
use eraser_sim::{
    eval_rtl_op_with, execute_into, execute_tape_into, ExecCtx, ExecMonitor, ExecOutcome,
    NoopMonitor, SimSnapshot, SlotWrite, Stimulus, ValueStore,
};
use std::time::Instant;

/// Bound on delta cycles per step (oscillation guard).
const DELTA_LIMIT: usize = 10_000;

/// Smallest batch chunk worth transposing into lane planes; below this the
/// per-chunk fixed cost (lane-word fills plus the 64×64 bit-matrix
/// transposes of the input and output planes, ~400 word operations each)
/// exceeds the scalar evaluations it replaces, so the engine falls back to
/// the scalar path (counted in
/// [`RedundancyStats::batch_scalar_fallbacks`]). Word-level scalar
/// evaluation already packs a node's full width into one word, so batching
/// only wins where per-fault overheads (tape dispatch, diff-list searches)
/// amortize across well-filled lanes — measured break-even sits near a
/// quarter-full word.
const MIN_BATCH_LANES: usize = 16;

/// A fault's view of the committed design state: the diff entry where
/// visible, the good value otherwise. All lookups borrow — building or
/// reading a view never clones a value.
pub struct FaultView<'e> {
    diffs: &'e [DiffList],
    good: &'e ValueStore,
    fault: FaultId,
}

impl<'e> FaultView<'e> {
    /// Creates the view of `fault`.
    pub fn new(diffs: &'e [DiffList], good: &'e ValueStore, fault: FaultId) -> Self {
        FaultView { diffs, good, fault }
    }
}

impl ValueSource for FaultView<'_> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        self.diffs[sig.index()].view(self.fault, self.good.get(sig))
    }
}

/// One behavioral activation's classification of faults.
#[derive(Debug, Clone, Default)]
struct Activation {
    /// The good network fired.
    good: bool,
    /// Faults whose view fired although the good network did not.
    fault_only: Vec<FaultId>,
    /// Faults whose view did not fire although the good network did.
    suppressed: Vec<FaultId>,
}

/// Queued non-blocking effects of one behavioral activation.
///
/// Fault writes are stored flat (grouped per fault via `executed` ranges)
/// so the whole block is three reusable vectors instead of a vector of
/// vectors.
#[derive(Debug, Default)]
struct PendingNba {
    good_writes: Vec<SlotWrite>,
    /// Non-blocking writes of individually executed faults, flat, grouped
    /// consecutively per fault.
    fault_writes: Vec<SlotWrite>,
    /// `(fault, start, end)` ranges into `fault_writes`; every individually
    /// executed fault appears here, possibly with an empty range.
    executed: Vec<(FaultId, u32, u32)>,
    /// Faults whose activation was suppressed: their targets are pinned to
    /// the pre-commit values.
    suppressed: Vec<FaultId>,
}

impl PendingNba {
    fn clear(&mut self) {
        self.good_writes.clear();
        self.fault_writes.clear();
        self.executed.clear();
        self.suppressed.clear();
    }
}

/// Reusable buffers for the engine's hot path. Every vector and `LogicVec`
/// here is taken, used, cleared and returned — capacities persist across
/// steps, so the steady state never touches the allocator.
#[derive(Default)]
struct Workspace {
    /// `LogicVec` temporaries and RTL-expression scratch.
    bufs: EvalScratch,
    /// Tape-execution slot arena (tape backend's RTL evaluation).
    tape: TapeScratch,
    /// Behavioral-interpreter scratch.
    exec_ctx: ExecCtx,
    /// Redundancy-monitor decision re-evaluation scratch.
    mon_scratch: EvalScratch,
    id_pool: Vec<Vec<FaultId>>,
    news_pool: Vec<Vec<(FaultId, LogicVec)>>,
    sig_pool: Vec<Vec<SignalId>>,
    out_pool: Vec<ExecOutcome>,
    act_pool: Vec<Activation>,
    /// Activations of the current delta.
    act_list: Vec<(BehavioralId, Activation)>,
    /// Per-fault outcomes of the current activation.
    fault_outs: Vec<(FaultId, ExecOutcome)>,
    /// Swap buffer for draining `watch_changed` without losing capacity.
    changed: Vec<SignalId>,
    /// Dense changed-this-delta flags (reset after each detection).
    changed_flag: Vec<bool>,
    /// Edge-node worklist of the current delta.
    nodes: Vec<BehavioralId>,
    /// Sensitivity terms on changed signals.
    terms: Vec<(EdgeKind, SignalId)>,
    /// Per-input lane planes of the bit-parallel RTL batch path.
    planes: Vec<LanePlanes>,
    /// Output lane plane of the batch path.
    out_plane: LanePlanes,
    /// `(batch, lane, fault)` slots of the current node's candidates.
    slots: Vec<(u32, u8, FaultId)>,
}

impl Workspace {
    fn take_ids(&mut self) -> Vec<FaultId> {
        self.id_pool.pop().unwrap_or_default()
    }

    fn put_ids(&mut self, mut v: Vec<FaultId>) {
        v.clear();
        self.id_pool.push(v);
    }

    fn take_news(&mut self) -> Vec<(FaultId, LogicVec)> {
        self.news_pool.pop().unwrap_or_default()
    }

    /// Returns a fault-update batch, recycling its value buffers.
    fn put_news(&mut self, mut v: Vec<(FaultId, LogicVec)>) {
        for (_, buf) in v.drain(..) {
            self.bufs.put(buf);
        }
        self.news_pool.push(v);
    }

    fn take_sigs(&mut self) -> Vec<SignalId> {
        self.sig_pool.pop().unwrap_or_default()
    }

    fn put_sigs(&mut self, mut v: Vec<SignalId>) {
        v.clear();
        self.sig_pool.push(v);
    }

    fn take_out(&mut self) -> ExecOutcome {
        self.out_pool.pop().unwrap_or_default()
    }

    fn put_out(&mut self, mut o: ExecOutcome) {
        o.clear();
        self.out_pool.push(o);
    }

    fn take_act(&mut self) -> Activation {
        self.act_pool.pop().unwrap_or_default()
    }

    fn put_act(&mut self, mut a: Activation) {
        a.good = false;
        a.fault_only.clear();
        a.suppressed.clear();
        self.act_pool.push(a);
    }
}

/// The ERASER concurrent fault simulation engine.
///
/// Holds the good network state plus per-signal [`DiffList`]s for the whole
/// fault batch, and advances them together through the stimulus. See the
/// [crate docs](crate) for the step structure and
/// [`run_campaign`](crate::run_campaign) for the one-call driver.
///
/// The simulation state and the scratch [`Workspace`] are two fields, so
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
    /// Compiled evaluation tapes when running on the tape backend —
    /// compiled once per campaign and shared by reference across
    /// fault-parallel shard workers, or owned when constructed standalone.
    tapes: Option<TapeRef<'d>>,
    /// Bit-parallel batch program when fault batching is enabled —
    /// compiled once per campaign and shared across shard workers.
    batch: Option<&'d BatchProgram>,
    /// Static `(batch, lane)` fault assignment; present iff `batch` is.
    plan: Option<BatchPlan>,

    good: ValueStore,
    diffs: Vec<DiffList>,
    site_faults: Vec<Vec<FaultId>>,
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
    nba_pool: Vec<PendingNba>,

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
/// let mut engine = EraserEngine::session(design, &shard.list)
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
    tapes: Option<TapeRef<'d>>,
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
        self.tapes = tapes_for_backend(self.design, backend);
        self
    }

    /// Pins the evaluation tapes to a shared pre-compiled program (`None`
    /// pins the tree walker) — what the campaign drivers hand every shard
    /// worker so the design is lowered once per campaign.
    pub fn tapes(mut self, tapes: Option<&'d TapeProgram>) -> Self {
        self.tapes = tapes.map(TapeRef::Shared);
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
        EraserEngine::build(
            self.design,
            self.faults,
            self.mode,
            self.drop_detected,
            self.tapes,
            self.batch,
            self.resume,
        )
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
            tapes: None,
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
        Self::build(design, faults, mode, drop_detected, None, None, None)
    }

    fn build(
        design: &'d Design,
        faults: &'d FaultList,
        mode: RedundancyMode,
        drop_detected: bool,
        tapes: Option<TapeRef<'d>>,
        batch: Option<&'d BatchProgram>,
        resume_from: Option<(&SimSnapshot, usize)>,
    ) -> Self {
        let n_sig = design.num_signals();
        let mut site_faults: Vec<Vec<FaultId>> = vec![Vec::new(); n_sig];
        for f in faults.iter() {
            site_faults[f.signal.index()].push(f.id);
        }
        let good = ValueStore::new(design);
        let edge_prev_good = design
            .signals()
            .iter()
            .map(|s| LogicVec::new_x(s.width))
            .collect();
        // Pre-size each signal's diff list from its site-affinity fault
        // count — the guaranteed-resident entries.
        let diffs = site_faults
            .iter()
            .map(|v| DiffList::with_capacity(v.len()))
            .collect();
        let site_live = site_faults.iter().map(|v| v.len() as u32).collect();
        let plan = batch.as_ref().map(|_| BatchPlan::build(faults));
        let mut state = EngineState {
            design,
            faults,
            mode,
            drop_detected,
            tapes,
            batch,
            plan,
            good,
            diffs,
            site_faults,
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
            nba_pool: Vec::new(),
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
        if let Some((snap, start)) = resume_from {
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

    fn set_input(&mut self, ws: &mut Workspace, sig: SignalId, value: &LogicVec) {
        let width = self.design.signal(sig).width;
        if value.width() == width {
            if self.good.get(sig) != value {
                self.commit_signal(ws, sig, value, &[], true);
            }
        } else {
            let mut resized = ws.bufs.take_for(width);
            resized.copy_resized(value, width);
            if self.good.get(sig) != &resized {
                self.commit_signal(ws, sig, &resized, &[], true);
            }
            ws.bufs.put(resized);
        }
    }

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
                    ws.put_act(act);
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

    fn observe(&mut self, ws: &mut Workspace) {
        let design = self.design;
        let mut hits = ws.take_ids();
        let mut newly_dead = false;
        for &o in design.outputs() {
            hits.clear();
            {
                let good = self.good.get(o);
                let alive = &self.alive;
                hits.extend(
                    self.diffs[o.index()]
                        .entries()
                        .iter()
                        .filter(|(f, v)| alive[f.index()] && detectable_mismatch(good, v))
                        .map(|(f, _)| *f),
                );
            }
            for &f in &hits {
                if self.coverage.record(
                    f,
                    Detection {
                        step: self.step_index,
                        output: o,
                    },
                ) && self.drop_detected
                {
                    self.alive[f.index()] = false;
                    self.alive_count -= 1;
                    self.site_live[self.faults.fault(f).signal.index()] -= 1;
                    self.stats.dropped_faults += 1;
                    newly_dead = true;
                }
            }
        }
        ws.put_ids(hits);
        if newly_dead {
            self.sweep_dead(ws);
        }
    }

    /// Removes diff entries of dropped faults everywhere, recycling their
    /// value buffers so wide (boxed) storage survives fault drops.
    fn sweep_dead(&mut self, ws: &mut Workspace) {
        let alive = &self.alive;
        let bufs = &mut ws.bufs;
        for dl in &mut self.diffs {
            dl.retain_recycle(|f, _| alive[f.index()], |v| bufs.put(v));
        }
        for dl in &mut self.edge_prev_diffs {
            dl.retain_recycle(|f, _| alive[f.index()], |v| bufs.put(v));
        }
    }

    // ---- scheduling ----

    fn mark_rtl(&mut self, id: RtlNodeId) {
        if !self.rtl_dirty[id.index()] {
            self.rtl_dirty[id.index()] = true;
            self.rtl_queue.push(id);
        }
    }

    fn mark_beh(&mut self, id: BehavioralId) {
        if !self.beh_dirty[id.index()] {
            self.beh_dirty[id.index()] = true;
            self.beh_queue.push(id);
        }
    }

    fn schedule_fanout(&mut self, sig: SignalId) {
        for &n in self.design.rtl_fanout(sig) {
            self.mark_rtl(n);
        }
        for &b in self.design.level_fanout(sig) {
            self.mark_beh(b);
        }
        if !self.design.edge_fanout(sig).is_empty() && !self.watch_flag[sig.index()] {
            self.watch_flag[sig.index()] = true;
            self.watch_changed.push(sig);
        }
    }

    // ---- committed-state updates ----

    /// Commits a new good value and a batch of fault updates to one signal,
    /// maintaining the diff-list invariants:
    ///
    /// * entries exist exactly where a live fault's value differs from the
    ///   good value,
    /// * faults sited on this signal always observe their stuck bit forced
    ///   (the force is re-applied on every write),
    /// * fanout is scheduled if the good value or any fault's *view*
    ///   changed.
    ///
    /// `good_write_applies_to_all` states that the write producing
    /// `new_good` also occurs in every fault network not explicitly listed
    /// in `fault_news` (true for input drives, RTL node outputs and
    /// behavioral targets the *good* execution wrote). Only then may the
    /// stuck-at force be re-materialized for sited faults missing from the
    /// batch; when a behavioral target was written solely by some other
    /// fault's network, untouched faults keep their private values.
    ///
    /// **Good-only lane 1:** a [clean](Self::clean) target with no fault
    /// updates has no entry to maintain and no force to re-apply — the
    /// commit is the good simulator's compare, store and schedule. Every
    /// other lane ends here.
    fn commit_signal(
        &mut self,
        ws: &mut Workspace,
        sig: SignalId,
        new_good: &LogicVec,
        fault_news: &[(FaultId, LogicVec)],
        good_write_applies_to_all: bool,
    ) {
        if fault_news.is_empty() && self.clean(sig) {
            if self.good.commit(sig, new_good) {
                self.schedule_fanout(sig);
            }
            return;
        }
        let si = sig.index();
        let good_changed = self.good.get(sig) != new_good;
        let mut view_changed = false;
        let epoch = self.next_commit_epoch();
        let width = self.design.signal(sig).width;
        let mut forced = ws.bufs.take_for(width);

        for (f, v) in fault_news {
            if !self.alive[f.index()] {
                continue;
            }
            self.commit_seen[f.index()] = epoch;
            let fault = self.faults.fault(*f);
            forced.assign_from(v);
            if fault.signal == sig {
                fault.apply_assign(&mut forced);
            }
            // The good store is updated last, so this is still the old view.
            if forced != *self.diffs[si].view(*f, self.good.get(sig)) {
                view_changed = true;
            }
            if forced != *new_good {
                let fv = &forced;
                self.diffs[si].upsert_seeded(
                    *f,
                    || ws.bufs.take_for(width),
                    |slot| slot.assign_from(fv),
                );
            } else if let Some(buf) = self.diffs[si].remove(*f) {
                ws.bufs.put(buf);
            }
        }

        // Faults sited here but not in the update batch: re-apply the force
        // against the new good value (their networks received the same
        // write).
        if good_write_applies_to_all {
            for fi in 0..self.site_faults[si].len() {
                let f = self.site_faults[si][fi];
                if !self.alive[f.index()] || self.commit_seen[f.index()] == epoch {
                    continue;
                }
                self.commit_seen[f.index()] = epoch;
                let fault = self.faults.fault(f);
                forced.assign_from(new_good);
                fault.apply_assign(&mut forced);
                if forced != *self.diffs[si].view(f, self.good.get(sig)) {
                    view_changed = true;
                }
                if forced != *new_good {
                    let fv = &forced;
                    self.diffs[si].upsert_seeded(
                        f,
                        || ws.bufs.take_for(width),
                        |slot| slot.assign_from(fv),
                    );
                } else if let Some(buf) = self.diffs[si].remove(f) {
                    ws.bufs.put(buf);
                }
            }
        }

        // Untouched entries keep their absolute value; those now equal to
        // the good value became invisible, dead entries are purged.
        {
            let alive = &self.alive;
            let seen = &self.commit_seen;
            self.diffs[si].retain_recycle(
                |f, v| seen[f.index()] == epoch || (alive[f.index()] && v != new_good),
                |v| ws.bufs.put(v),
            );
        }

        self.good.commit(sig, new_good);
        if good_changed || view_changed {
            self.schedule_fanout(sig);
        }
        ws.bufs.put(forced);
    }

    /// Opens a `commit_signal` call's membership epoch: afterwards
    /// `commit_seen[f] == epoch` exactly for the faults this call stamped.
    fn next_commit_epoch(&mut self) -> u32 {
        self.commit_epoch = self.commit_epoch.wrapping_add(1);
        if self.commit_epoch == 0 {
            self.commit_seen.fill(0);
            self.commit_epoch = 1;
        }
        self.commit_epoch
    }

    // ---- RTL nodes (concurrent) ----

    fn settle_active(&mut self, ws: &mut Workspace) {
        // A level-sensitive activation fires in every network at once.
        let act = Activation {
            good: true,
            ..Default::default()
        };
        loop {
            while let Some(id) = self.rtl_queue.pop() {
                self.rtl_dirty[id.index()] = false;
                self.eval_rtl_concurrent(ws, id);
            }
            if self.beh_queue.is_empty() {
                break;
            }
            // RTL nodes go first, so a run of activations ends when one of
            // them schedules an RTL node; the run is timed as a whole.
            let t0 = Instant::now();
            while self.rtl_queue.is_empty() {
                let Some(id) = self.beh_queue.pop() else {
                    break;
                };
                self.beh_dirty[id.index()] = false;
                self.process_activation(ws, id, &act);
            }
            self.stats.time_behavioral += t0.elapsed();
        }
    }

    /// Concurrent evaluation of one RTL node: the good network once, plus
    /// exactly the faults with a visible difference on an input, an
    /// existing (possibly stale) difference on the output, or a fault site
    /// on the output.
    ///
    /// **Good-only lane 2:** with every input and the output
    /// [clean](Self::clean) there is no candidate and nothing to re-force,
    /// so the good evaluation goes straight to the commit — ahead of the
    /// batch/scalar split, so both evaluators take it.
    fn eval_rtl_concurrent(&mut self, ws: &mut Workspace, id: RtlNodeId) {
        let design = self.design;
        let node = design.rtl_node(id);
        let out_width = design.signal(node.output).width;
        let tapes = self.tapes.as_ref().map(|t| t.program());

        let mut good_out = ws.bufs.take_for(out_width);
        match tapes {
            Some(tp) => run_tape(tp.rtl(id.index()), &self.good, &mut ws.tape, &mut good_out),
            None => {
                let good = &self.good;
                eval_rtl_op_with(
                    &node.op,
                    &|k| good.get(node.inputs[k]),
                    node.inputs.len(),
                    out_width,
                    &mut ws.bufs,
                    &mut good_out,
                );
            }
        }
        self.stats.rtl_good_evals += 1;

        if self.clean(node.output) && node.inputs.iter().all(|s| self.clean(*s)) {
            self.commit_signal(ws, node.output, &good_out, &[], true);
            ws.bufs.put(good_out);
            return;
        }

        let mut candidates = ws.take_ids();
        union_ids_into(
            node.inputs
                .iter()
                .map(|s| &self.diffs[s.index()])
                .chain(std::iter::once(&self.diffs[node.output.index()])),
            &self.alive,
            &mut candidates,
        );
        // Sited faults are re-forced by commit_signal; they only need
        // explicit evaluation when an input difference feeds them, which
        // the union above already covers.

        let mut fault_news = ws.take_news();
        let batching = self.batch.is_some();
        let batch_tape = self.batch.and_then(|b| b.rtl(id.index()));

        if let (Some(bt), Some(plan)) = (batch_tape, self.plan.as_ref()) {
            // Bit-parallel path. Candidates with a visible input difference
            // are ordered by their static `BatchPlan` slot — site-major, so
            // faults sharing sites (and therefore diff entries) land next
            // to each other — then packed *densely* into 64-lane chunks: a
            // lane is the fault's position in its chunk, so every chunk but
            // the last is full regardless of how candidates spread across
            // static batches, and the per-chunk transpose cost is paid
            // ceil(n/64) times per node evaluation instead of once per
            // static batch touched. Candidates with no visible input
            // difference copy the good output exactly as in the scalar
            // path (explicit redundancy).
            let mut slots = std::mem::take(&mut ws.slots);
            slots.clear();
            for &f in &candidates {
                let any_diff = node
                    .inputs
                    .iter()
                    .any(|s| self.diffs[s.index()].contains(f));
                if any_diff {
                    let (b, l) = plan.slot(f);
                    slots.push((b, l, f));
                } else {
                    let mut out_v = ws.bufs.take_for(out_width);
                    out_v.assign_from(&good_out);
                    fault_news.push((f, out_v));
                }
            }
            slots.sort_unstable();

            for chunk in slots.chunks(eraser_logic::LANES as usize) {
                if chunk.len() < MIN_BATCH_LANES {
                    for &(_, _, f) in chunk {
                        self.stats.rtl_fault_evals += 1;
                        self.stats.batch_scalar_fallbacks += 1;
                        let mut out_v = ws.bufs.take_for(out_width);
                        Self::eval_rtl_fault_scalar(
                            tapes,
                            &self.diffs,
                            &self.good,
                            node,
                            id,
                            out_width,
                            f,
                            ws,
                            &mut out_v,
                        );
                        fault_news.push((f, out_v));
                    }
                } else {
                    // Input planes: the good value broadcast to every lane,
                    // overridden lane-wise by the visible diff entries —
                    // exactly what each lane's FaultView would read. Lane
                    // values are assembled as per-lane words and transposed
                    // into the plane wholesale (word-level, O(64·log 64))
                    // rather than one bit-level `set_lane` per fault;
                    // diff-free inputs skip the transpose entirely.
                    while ws.planes.len() < node.inputs.len() {
                        ws.planes.push(LanePlanes::new());
                    }
                    let mut la = [0u64; 64];
                    let mut lb = [0u64; 64];
                    for (k, &s) in node.inputs.iter().enumerate() {
                        let plane = &mut ws.planes[k];
                        let gv = self.good.get(s);
                        let dl = &self.diffs[s.index()];
                        if dl.is_empty() {
                            plane.broadcast(gv);
                            continue;
                        }
                        let (ga, gb) = gv.word_planes();
                        la.fill(ga);
                        lb.fill(gb);
                        let mut any_diff_here = false;
                        for (lane, &(_, _, f)) in chunk.iter().enumerate() {
                            if let Some(v) = dl.get(f) {
                                (la[lane], lb[lane]) = v.word_planes();
                                any_diff_here = true;
                            }
                        }
                        if any_diff_here {
                            plane.load_lanes(gv.width(), &mut la, &mut lb);
                        } else {
                            plane.broadcast(gv);
                        }
                    }
                    run_batch(bt, &ws.planes[..node.inputs.len()], &mut ws.out_plane);
                    self.stats.rtl_fault_evals += chunk.len() as u64;
                    self.stats.batch_groups += 1;
                    self.stats.batch_lanes += chunk.len() as u64;
                    // One word-level gather of all lanes, then O(1)
                    // word-assigns per fault.
                    ws.out_plane.store_lanes(&mut la, &mut lb);
                    for (lane, &(_, _, f)) in chunk.iter().enumerate() {
                        let mut out_v = ws.bufs.take_for(out_width);
                        out_v.assign_word(out_width, la[lane], lb[lane]);
                        fault_news.push((f, out_v));
                    }
                }
            }
            ws.slots = slots;
        } else {
            for &f in &candidates {
                let any_diff = node
                    .inputs
                    .iter()
                    .any(|s| self.diffs[s.index()].contains(f));
                let mut out_v = ws.bufs.take_for(out_width);
                if any_diff {
                    self.stats.rtl_fault_evals += 1;
                    if batching {
                        // Batching is on but this node is unbatchable
                        // (behavioral-style op, wide signal, shift, …).
                        self.stats.batch_scalar_fallbacks += 1;
                    }
                    Self::eval_rtl_fault_scalar(
                        tapes,
                        &self.diffs,
                        &self.good,
                        node,
                        id,
                        out_width,
                        f,
                        ws,
                        &mut out_v,
                    );
                } else {
                    // No visible input difference: the fault's output equals
                    // the good output (explicit redundancy at the RTL node
                    // level).
                    out_v.assign_from(&good_out);
                }
                fault_news.push((f, out_v));
            }
        }
        self.commit_signal(ws, node.output, &good_out, &fault_news, true);
        ws.put_news(fault_news);
        ws.put_ids(candidates);
        ws.bufs.put(good_out);
    }

    /// One fault's scalar RTL evaluation against its view — the per-lane
    /// kernel shared by the scalar path and the batch path's fallbacks.
    /// Free of `&mut self` so the batch path can call it while holding the
    /// batch program.
    #[allow(clippy::too_many_arguments)]
    fn eval_rtl_fault_scalar(
        tapes: Option<&TapeProgram>,
        diffs: &[DiffList],
        good: &ValueStore,
        node: &RtlNode,
        id: RtlNodeId,
        out_width: u32,
        f: FaultId,
        ws: &mut Workspace,
        out_v: &mut LogicVec,
    ) {
        match tapes {
            Some(tp) => {
                let view = FaultView::new(diffs, good, f);
                run_tape(tp.rtl(id.index()), &view, &mut ws.tape, out_v);
            }
            None => {
                eval_rtl_op_with(
                    &node.op,
                    &|k| {
                        let s = node.inputs[k];
                        diffs[s.index()].view(f, good.get(s))
                    },
                    node.inputs.len(),
                    out_width,
                    &mut ws.bufs,
                    out_v,
                );
            }
        }
    }

    // ---- edge detection (concurrent, fake-event-safe) ----

    /// Evaluates event expressions once per delta, after the active region
    /// has settled, for the good values and every diff-carrying fault
    /// together — the generalization of deferred edge detection that
    /// prevents the paper's *fake events*. Fills `ws.act_list` and returns
    /// its length.
    fn detect_edges(&mut self, ws: &mut Workspace) -> usize {
        std::mem::swap(&mut self.watch_changed, &mut ws.changed);
        if ws.changed.is_empty() {
            return 0;
        }
        let design = self.design;
        let n_sig = design.num_signals();
        if ws.changed_flag.len() < n_sig {
            ws.changed_flag.resize(n_sig, false);
        }
        ws.nodes.clear();
        for i in 0..ws.changed.len() {
            let sig = ws.changed[i];
            self.watch_flag[sig.index()] = false;
            ws.changed_flag[sig.index()] = true;
            for &b in design.edge_fanout(sig) {
                if !self.edge_queued[b.index()] {
                    self.edge_queued[b.index()] = true;
                    ws.nodes.push(b);
                }
            }
        }

        for ni in 0..ws.nodes.len() {
            let b = ws.nodes[ni];
            self.edge_queued[b.index()] = false;
            let node = design.behavioral(b);
            let Sensitivity::Edges(edges) = &node.sensitivity else {
                continue;
            };
            // Terms on signals that changed this delta.
            ws.terms.clear();
            ws.terms.extend(
                edges
                    .iter()
                    .filter(|(_, s)| ws.changed_flag[s.index()])
                    .copied(),
            );
            if ws.terms.is_empty() {
                continue;
            }
            let mut good_fired = false;
            for ti in 0..ws.terms.len() {
                let (kind, s) = ws.terms[ti];
                let prev = self.edge_prev_good[s.index()].bit_or_x(0);
                let cur = self.good.get(s).bit_or_x(0);
                if kind.matches(prev, cur) {
                    good_fired = true;
                }
            }
            let mut act = ws.take_act();
            act.good = good_fired;
            // Faults with differences (past or present) on any term signal
            // may diverge from the good activation; with none on any of
            // them every network fires exactly when the good one does.
            let mut cands = ws.take_ids();
            if ws.terms.iter().any(|(_, s)| {
                !self.edge_prev_diffs[s.index()].is_empty() || !self.diffs[s.index()].is_empty()
            }) {
                union_ids_into(
                    ws.terms.iter().flat_map(|(_, s)| {
                        [&self.edge_prev_diffs[s.index()], &self.diffs[s.index()]]
                    }),
                    &self.alive,
                    &mut cands,
                );
            }
            for &f in &cands {
                let mut fault_fired = false;
                for &(kind, s) in edges.iter() {
                    // Unchanged signals contribute no transition for the
                    // fault either (its view there is stable this delta).
                    if !ws.changed_flag[s.index()] {
                        continue;
                    }
                    let prev = self.edge_prev_diffs[s.index()]
                        .get(f)
                        .map(|v| v.bit_or_x(0))
                        .unwrap_or_else(|| self.edge_prev_good[s.index()].bit_or_x(0));
                    let cur = self.diffs[s.index()]
                        .get(f)
                        .map(|v| v.bit_or_x(0))
                        .unwrap_or_else(|| self.good.get(s).bit_or_x(0));
                    if kind.matches(prev, cur) {
                        fault_fired = true;
                    }
                }
                match (good_fired, fault_fired) {
                    (true, false) => act.suppressed.push(f),
                    (false, true) => act.fault_only.push(f),
                    _ => {}
                }
            }
            ws.put_ids(cands);
            if act.good || !act.fault_only.is_empty() {
                ws.act_list.push((b, act));
            } else {
                ws.put_act(act);
            }
        }
        // Latch the settled values for the next detection point and reset
        // the changed flags.
        for i in 0..ws.changed.len() {
            let sig = ws.changed[i];
            ws.changed_flag[sig.index()] = false;
            self.edge_prev_good[sig.index()].assign_from(self.good.get(sig));
            self.edge_prev_diffs[sig.index()].assign_from(&self.diffs[sig.index()]);
        }
        ws.changed.clear();
        ws.act_list.len()
    }

    // ---- behavioral nodes (concurrent + redundancy elimination) ----

    /// Processes one behavioral activation: good execution (with the
    /// redundancy monitor in `Full` mode), candidate selection, faulty
    /// executions for the non-redundant faults, blocking commit, and NBA
    /// queuing.
    ///
    /// **Good-only lane 3:** when every network fired with the good one
    /// (a good activation never carries `fault_only` faults, so no
    /// `suppressed` ones is the whole test), every signal the node reads or
    /// writes is [clean](Self::clean) and the mode eliminates explicit
    /// redundancy (or no fault is alive), every live fault is an explicitly
    /// skipped opportunity: one unmonitored good execution, its blocking
    /// finals committed in target order, its non-blocking writes queued.
    fn process_activation(&mut self, ws: &mut Workspace, id: BehavioralId, act: &Activation) {
        let design = self.design;
        let node = design.behavioral(id);
        let beh_tapes = self
            .tapes
            .as_ref()
            .map(|t| t.program().behavioral(id.index()));

        let mut good_out = ws.take_out();

        if act.good
            && act.suppressed.is_empty()
            && (self.mode != RedundancyMode::None || self.alive_count == 0)
            && node.reads.iter().all(|s| self.clean(*s))
            && node.writes.iter().all(|s| self.clean(*s))
        {
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.explicit_skipped += self.alive_count;
            exec_node(
                design,
                node,
                beh_tapes,
                &self.good,
                &mut NoopMonitor,
                &mut ws.exec_ctx,
                &mut good_out,
            );
            good_out.blocking.sort_unstable_by_key(|(t, _)| *t);
            for (t, v) in &good_out.blocking {
                self.commit_signal(ws, *t, v, &[], true);
            }
            self.queue_nba(&mut good_out, &mut [], &[]);
            ws.put_out(good_out);
            return;
        }

        let mut exec_list = ws.take_ids();

        if act.good {
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.suppressed_activations += act.suppressed.len() as u64;

            // Candidate selection (explicit redundancy elimination).
            match self.mode {
                RedundancyMode::None => {
                    exec_list.extend(
                        (0..self.faults.len() as u32)
                            .map(FaultId)
                            .filter(|f| self.alive[f.index()] && !act.suppressed.contains(f)),
                    );
                    exec_node(
                        design,
                        node,
                        beh_tapes,
                        &self.good,
                        &mut NoopMonitor,
                        &mut ws.exec_ctx,
                        &mut good_out,
                    );
                }
                RedundancyMode::Explicit => {
                    self.input_candidates(node, &act.suppressed, &mut exec_list);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - exec_list.len() as u64;
                    exec_node(
                        design,
                        node,
                        beh_tapes,
                        &self.good,
                        &mut NoopMonitor,
                        &mut ws.exec_ctx,
                        &mut good_out,
                    );
                }
                RedundancyMode::Full => {
                    let mut cands = ws.take_ids();
                    self.input_candidates(node, &act.suppressed, &mut cands);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - cands.len() as u64;
                    let killed = std::mem::take(&mut exec_list);
                    let mut mon = RedundancyMonitor::new(
                        &self.diffs,
                        &self.good,
                        &node.vdg,
                        cands,
                        killed,
                        &mut ws.mon_scratch,
                    );
                    exec_node(
                        design,
                        node,
                        beh_tapes,
                        &self.good,
                        &mut mon,
                        &mut ws.exec_ctx,
                        &mut good_out,
                    );
                    let (redundant, must_exec) = mon.into_verdicts();
                    self.stats.implicit_skipped += redundant.len() as u64;
                    exec_list = must_exec;
                    ws.put_ids(redundant);
                }
            }
        }

        // Individual faulty executions: non-redundant candidates plus
        // divergent fault-only activations.
        let mut fault_outs = std::mem::take(&mut ws.fault_outs);
        for &f in &exec_list {
            let mut out = ws.take_out();
            {
                let view = FaultView::new(&self.diffs, &self.good, f);
                exec_node(
                    design,
                    node,
                    beh_tapes,
                    &view,
                    &mut NoopMonitor,
                    &mut ws.exec_ctx,
                    &mut out,
                );
            }
            fault_outs.push((f, out));
        }
        self.stats.fault_executions += fault_outs.len() as u64;
        for fi in 0..act.fault_only.len() {
            let f = act.fault_only[fi];
            if !self.alive[f.index()] {
                continue;
            }
            let mut out = ws.take_out();
            {
                let view = FaultView::new(&self.diffs, &self.good, f);
                exec_node(
                    design,
                    node,
                    beh_tapes,
                    &view,
                    &mut NoopMonitor,
                    &mut ws.exec_ctx,
                    &mut out,
                );
            }
            fault_outs.push((f, out));
            self.stats.fault_only_activations += 1;
            self.stats.fault_executions += 1;
        }

        self.commit_blocking(ws, act, &good_out, &fault_outs);

        self.queue_nba(&mut good_out, &mut fault_outs, &act.suppressed);

        for (_, o) in fault_outs.drain(..) {
            ws.put_out(o);
        }
        ws.fault_outs = fault_outs;
        ws.put_out(good_out);
        ws.put_ids(exec_list);
    }

    /// Queues one activation's non-blocking effects for the NBA region.
    fn queue_nba(
        &mut self,
        good_out: &mut ExecOutcome,
        fault_outs: &mut [(FaultId, ExecOutcome)],
        suppressed: &[FaultId],
    ) {
        if good_out.nba.is_empty() && fault_outs.iter().all(|(_, o)| o.nba.is_empty()) {
            return;
        }
        let mut block = self.nba_pool.pop().unwrap_or_default();
        block.good_writes.append(&mut good_out.nba);
        for (f, o) in fault_outs.iter_mut() {
            let start = block.fault_writes.len() as u32;
            block.fault_writes.append(&mut o.nba);
            block
                .executed
                .push((*f, start, block.fault_writes.len() as u32));
        }
        block.suppressed.extend(suppressed.iter().copied());
        self.pending_nba.push(block);
    }

    /// Faults with a visible difference on any signal the node reads — the
    /// candidates that survive explicit redundancy elimination. Fills
    /// `out` (cleared first).
    fn input_candidates(
        &self,
        node: &eraser_ir::BehavioralNode,
        suppressed: &[FaultId],
        out: &mut Vec<FaultId>,
    ) {
        union_ids_into(
            node.reads.iter().map(|s| &self.diffs[s.index()]),
            &self.alive,
            out,
        );
        out.retain(|f| !suppressed.contains(f));
    }

    /// Commits blocking effects of one activation: the good finals, each
    /// executed fault's finals, pinned values for suppressed faults, and
    /// replayed good writes for faults that were skipped as redundant but
    /// carry differences on written targets.
    fn commit_blocking(
        &mut self,
        ws: &mut Workspace,
        act: &Activation,
        good_out: &ExecOutcome,
        fault_outs: &[(FaultId, ExecOutcome)],
    ) {
        // Union of blocking-written targets.
        let mut targets = ws.take_sigs();
        targets.extend(good_out.blocking.iter().map(|(s, _)| *s));
        for (_, o) in fault_outs {
            targets.extend(o.blocking.iter().map(|(s, _)| *s));
        }
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            ws.put_sigs(targets);
            return;
        }

        for &t in &targets {
            // Buffers come from the width class of the target being
            // committed, so multi-target blocks mixing narrow and >64-bit
            // regs never reshape pooled storage.
            let t_width = self.design.signal(t).width;
            let mut new_good = ws.bufs.take_for(t_width);
            let good_final = good_out.blocking.iter().find(|(s, _)| *s == t);
            let good_wrote = good_final.is_some();
            match good_final {
                Some((_, v)) => new_good.assign_from(v),
                None => new_good.assign_from(self.good.get(t)),
            }

            let mut fault_news = ws.take_news();
            let mut covered = ws.take_ids();
            for (f, o) in fault_outs {
                covered.push(*f);
                let mut val = ws.bufs.take_for(t_width);
                match o.blocking.iter().find(|(s, _)| *s == t) {
                    Some((_, v)) => val.assign_from(v),
                    // Executed but did not write this target: its value is
                    // pinned at its own pre-commit view.
                    None => val.assign_from(self.diffs[t.index()].view(*f, self.good.get(t))),
                }
                fault_news.push((*f, val));
            }
            if act.good && good_wrote {
                for &f in &act.suppressed {
                    if self.alive[f.index()] {
                        covered.push(f);
                        let mut val = ws.bufs.take_for(t_width);
                        val.assign_from(self.diffs[t.index()].view(f, self.good.get(t)));
                        fault_news.push((f, val));
                    }
                }
                // Faults skipped as redundant with an existing difference
                // on the target: replay the good writes onto their state.
                covered.sort_unstable();
                let mut replays = ws.take_ids();
                {
                    let alive = &self.alive;
                    let covered = &covered;
                    replays.extend(
                        self.diffs[t.index()]
                            .ids()
                            .filter(|f| alive[f.index()] && covered.binary_search(f).is_err()),
                    );
                }
                for &f in &replays {
                    let mut val = ws.bufs.take_for(t_width);
                    val.assign_from(self.diffs[t.index()].view(f, self.good.get(t)));
                    for w in &good_out.blocking_writes {
                        if w.target == t {
                            w.apply_assign(&mut val);
                        }
                    }
                    fault_news.push((f, val));
                }
                ws.put_ids(replays);
            }
            self.commit_signal(ws, t, &new_good, &fault_news, good_wrote);
            ws.bufs.put(new_good);
            ws.put_news(fault_news);
            ws.put_ids(covered);
        }
        ws.put_sigs(targets);
    }

    /// Commits the NBA region: for every pending activation block and every
    /// written target, computes the new good value and every affected
    /// fault's new value (own writes for executed faults, pinned values for
    /// suppressed ones, replayed good writes for skipped faults with
    /// differences).
    ///
    /// **Good-only lane 4:** a block of good writes only has no fault value
    /// to compute on a target that is [clean](Self::clean) *now* — faults
    /// may have become visible there since the block was queued — so the
    /// folded good value goes straight to the commit.
    fn commit_nba(&mut self, ws: &mut Workspace) -> bool {
        if self.pending_nba.is_empty() {
            return false;
        }
        let mut pending = std::mem::take(&mut self.pending_nba);
        let mut any = false;
        for block in &pending {
            let mut targets = ws.take_sigs();
            targets.extend(block.good_writes.iter().map(|w| w.target));
            targets.extend(block.fault_writes.iter().map(|w| w.target));
            targets.sort_unstable();
            targets.dedup();
            let good_only = block.executed.is_empty() && block.suppressed.is_empty();

            for &t in &targets {
                // Width-classed like commit_blocking: pooled buffers stay
                // within the committed target's storage class.
                let t_width = self.design.signal(t).width;
                let mut new_good = ws.bufs.take_for(t_width);
                new_good.assign_from(self.good.get(t));
                let mut good_wrote = false;
                for w in &block.good_writes {
                    if w.target == t {
                        w.apply_assign(&mut new_good);
                        good_wrote = true;
                    }
                }
                if good_only && self.clean(t) {
                    any |= self.good.get(t) != &new_good;
                    self.commit_signal(ws, t, &new_good, &[], true);
                    ws.bufs.put(new_good);
                    continue;
                }
                let mut old_good = ws.bufs.take_for(t_width);
                old_good.assign_from(self.good.get(t));

                let mut fault_news = ws.take_news();
                let mut covered = ws.take_ids();
                for &(f, start, end) in &block.executed {
                    if !self.alive[f.index()] {
                        continue;
                    }
                    covered.push(f);
                    let mut val = ws.bufs.take_for(t_width);
                    val.assign_from(self.diffs[t.index()].view(f, &old_good));
                    let mut wrote = false;
                    for w in &block.fault_writes[start as usize..end as usize] {
                        if w.target == t {
                            w.apply_assign(&mut val);
                            wrote = true;
                        }
                    }
                    if wrote || good_wrote {
                        fault_news.push((f, val));
                    } else {
                        ws.bufs.put(val);
                    }
                }
                if good_wrote {
                    for &f in &block.suppressed {
                        if self.alive[f.index()] {
                            covered.push(f);
                            let mut val = ws.bufs.take_for(t_width);
                            val.assign_from(self.diffs[t.index()].view(f, &old_good));
                            fault_news.push((f, val));
                        }
                    }
                    covered.sort_unstable();
                    let mut replays = ws.take_ids();
                    {
                        let alive = &self.alive;
                        let covered = &covered;
                        replays.extend(
                            self.diffs[t.index()]
                                .ids()
                                .filter(|f| alive[f.index()] && covered.binary_search(f).is_err()),
                        );
                    }
                    for &f in &replays {
                        let mut val = ws.bufs.take_for(t_width);
                        val.assign_from(self.diffs[t.index()].view(f, &old_good));
                        for w in &block.good_writes {
                            if w.target == t {
                                w.apply_assign(&mut val);
                            }
                        }
                        fault_news.push((f, val));
                    }
                    ws.put_ids(replays);
                }

                let before_good_changed = old_good != new_good;
                let before_entries = self.diffs[t.index()].len();
                self.commit_signal(ws, t, &new_good, &fault_news, good_wrote);
                if before_good_changed || self.diffs[t.index()].len() != before_entries {
                    any = true;
                }
                ws.put_news(fault_news);
                ws.put_ids(covered);
                ws.bufs.put(old_good);
                ws.bufs.put(new_good);
            }
            ws.put_sigs(targets);
        }
        // Recycle the blocks; any scheduling already happened inside
        // commit_signal — report whether another delta is needed. The
        // write values go back to the execution scratch the interpreter
        // draws assignment buffers from, so wide (>64-bit) NBA targets
        // keep reusing their boxed storage across activations.
        for mut block in pending.drain(..) {
            for w in block.good_writes.drain(..) {
                ws.exec_ctx.scratch.put(w.value);
            }
            for w in block.fault_writes.drain(..) {
                ws.exec_ctx.scratch.put(w.value);
            }
            block.clear();
            self.nba_pool.push(block);
        }
        self.pending_nba = pending;
        any || !self.rtl_queue.is_empty()
            || !self.beh_queue.is_empty()
            || !self.watch_changed.is_empty()
    }
}

/// Executes one behavioral activation on the configured backend: the
/// node's compiled tapes when present, the tree walker otherwise.
#[allow(clippy::too_many_arguments)]
fn exec_node<S: ValueSource + ?Sized, M: ExecMonitor + ?Sized>(
    design: &Design,
    node: &eraser_ir::BehavioralNode,
    tapes: Option<&eraser_ir::BehavioralTapes>,
    base: &S,
    monitor: &mut M,
    ctx: &mut ExecCtx,
    out: &mut ExecOutcome,
) {
    match tapes {
        Some(bt) => execute_tape_into(design, node, bt, base, monitor, ctx, out),
        None => execute_into(design, node, base, monitor, ctx, out),
    }
}
