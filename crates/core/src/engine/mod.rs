//! The concurrent fault simulation engine.
//!
//! # One loop, fault work at its hook points (paper Fig. 4)
//!
//! The engine's good network is an [`eraser_sim::Simulator`]: the kernel
//! runs the one settle loop — good values, the dirty set of RTL nodes and
//! level-sensitive blocks it drains in topological rank order, the watch
//! list, the edge latch, the NBA region, input drives and the settle bound —
//! and the engine's fault state rides it as its [`Hook`], called at these
//! points, each handled in the module named:
//!
//! * after each RTL node's good evaluation — the faults visible at the
//!   node (`rtl.rs`);
//! * for each edge-triggered node with a changed term — which faults fire
//!   apart from the good network — and when a behavioral node activates —
//!   Algorithm 1 and the individual executions (`behavioral.rs`);
//! * at each signal commit, before the good store, and at each NBA block
//!   commit — the diff lists (`commit.rs`), whose changes schedule fanout
//!   beside the good ones;
//! * once after each settled step — the delta count; detection follows
//!   in [`EraserEngine::run`] (`commit.rs`).
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
//! [`DiffList::upsert_seeded`], and expression evaluation runs through the
//! scratch-arena `eval_expr_into` path.
//!
//! # Cost proportional to the faults visible at the node
//!
//! Most of a fault simulation *is* the good simulation, so where no fault
//! is visible the engine does what the good simulator does and nothing
//! more: each of the four phases has a *good-only lane* (table above)
//! where the hook returns at once, and the kernel's good work is all that
//! runs. Each lane test is constant-time — a node's count of visible
//! inputs, or a target's empty site and diff lists — and an activation
//! or NBA block that carries no fault side keeps no engine record. Coverage,
//! detection steps and every [`RedundancyStats`] counter are the general
//! path's by construction — a lane books exactly what the general path
//! would have booked with empty candidate sets.

mod behavioral;
mod commit;
mod rtl;
#[cfg(test)]
mod tests;
mod workspace;

use crate::diff::{DiffList, FaultView};
use crate::stats::RedundancyStats;
use crate::RedundancyMode;
use behavioral::LocalSites;
use eraser_fault::{CoverageReport, FaultId, FaultList};
use eraser_ir::analysis::activation_local_signals;
use eraser_ir::{BatchProgram, BehavioralId, Design, EdgeKind, RtlNodeId, SignalId, ValueSource};
use eraser_logic::LogicVec;
use eraser_sim::{Evaluator, ExecCtx, ExecOutcome, Good, Hook, Simulator, SlotWrite, Stimulus};
use std::time::Instant;
use workspace::{Activation, PendingNba, Pool, Workspace, GOOD_ONLY, PLAIN};

/// The ERASER concurrent fault simulation engine.
///
/// A good-network [`Simulator`] carrying the per-signal [`DiffList`]s of the
/// whole fault batch as its hook, advancing them together through the
/// stimulus. See the [crate docs](crate) for the step structure and
/// [`run_campaign`](crate::run_campaign) for the one-call driver.
pub struct EraserEngine<'d> {
    sim: Simulator<'d, FaultHook<'d>>,
}

/// The engine's [`Hook`]: the fault state, with the scratch `Workspace`
/// beside it, so every hot method runs on the state with the workspace
/// borrowed next to it — nothing is moved out and back per call.
struct FaultHook<'d> {
    state: EngineState<'d>,
    ws: Workspace,
}

/// Everything the engine keeps beside the good network: the fault
/// differences on it, the faults' own activations and NBA blocks, and the
/// results so far.
struct EngineState<'d> {
    design: &'d Design,
    faults: &'d FaultList,
    mode: RedundancyMode,
    drop_detected: bool,
    /// Bit-parallel batch program when fault batching is enabled —
    /// compiled once per campaign and shared across shard workers.
    batch: Option<&'d BatchProgram>,

    diffs: Vec<DiffList>,
    /// Live faults sited on each signal whose force is materialized as a
    /// diff — all of them but those on activation-local signals; `observe`
    /// takes a dropped fault out.
    site_faults: Vec<Vec<FaultId>>,
    /// Per signal, [`clean`](Self::clean)'s answer: its site list and its
    /// diff list are both empty. Kept where either list changes —
    /// `settle_visibility` for a diff list, the drop in `observe` for a
    /// site list.
    clean_sig: Vec<bool>,
    /// Per behavioral node, the faults sited on the activation-local
    /// signals it reads ([`activation_local_signals`], `Full` mode only).
    /// No reader ever sees their force, so it is never materialized: the
    /// signal stays clean, and each good activation books the visible
    /// ones as implicitly skipped, exactly as Algorithm 1 would find them.
    local_sites: Vec<Vec<LocalSites>>,
    /// Per RTL node, how many of its inputs have a non-empty diff list:
    /// good-only lane 2 is a zero here.
    rtl_vis: Vec<u32>,
    /// Per behavioral node, how many of the signals it reads have a
    /// non-empty diff list: lane 3's read test is a zero here.
    beh_vis: Vec<u32>,
    /// Per signal, the behavioral nodes that read it.
    beh_readers: Vec<Vec<BehavioralId>>,
    /// Faults not dropped. A dropped fault leaves its site list, every
    /// diff list and every edge-latch copy before the next step.
    alive_count: u64,
    /// Per-fault stamp of the `commit_faults` call that last handled the
    /// fault; equal to `commit_epoch` means "handled by this call".
    commit_seen: Vec<u32>,
    commit_epoch: u32,

    /// The diff lists as of the last edge-detection point.
    edge_prev_diffs: Vec<DiffList>,
    /// The current delta's edge activations that carry a fault side, with
    /// their kernel activation index, in index order. Every other edge
    /// activation fires in every network, like a level-sensitive one.
    acts: Vec<(usize, Activation)>,
    /// The queued NBA blocks that carry a fault side (an executed or a
    /// suppressed fault), with their kernel block index, in index order.
    pending_nba: Vec<(usize, PendingNba)>,
    nba_pool: Pool<PendingNba>,
    /// What the kernel's commits belong to.
    phase: Phase,
    /// An NBA commit changed a diff list's membership: another delta.
    nba_moved: bool,
    /// Start of the behavioral run being timed.
    span_start: Option<Instant>,

    coverage: CoverageReport,
    stats: RedundancyStats,
    step_index: usize,
}

/// Which fault updates the kernel's next commit carries.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Input drives and RTL outputs: the batch `rtl_evaluated` left in
    /// `Workspace::rtl_news` (none for an input).
    Settle,
    /// The open activation's blocking targets: the position of its record
    /// in `EngineState::acts`, `None` where every network fires with the
    /// good one.
    Activation(Option<usize>),
    /// An NBA block's targets: the position of its fault side in
    /// `EngineState::pending_nba`, `None` for good writes only.
    Nba(Option<usize>),
}

/// The engine constructor: one fluent surface over every axis.
///
/// Obtained from [`EraserEngine::session`]; every axis has a built-in
/// default (mode [`RedundancyMode::Full`], fault dropping on, batching
/// off) and a chainable setter.
/// [`start`](Self::start) builds the engine and performs the initial
/// evaluation.
///
/// ```text
/// // A campaign shard worker: a shared batch program.
/// let mut engine = EraserEngine::session(design, &group.list)
///     .mode(config.mode)
///     .drop_detected(config.drop_detected)
///     .batch(batch)
///     .start();
/// engine.run(stimulus);
/// ```
pub struct EngineSession<'d> {
    design: &'d Design,
    faults: &'d FaultList,
    mode: RedundancyMode,
    drop_detected: bool,
    batch: Option<&'d BatchProgram>,
}

impl<'d> EngineSession<'d> {
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

    /// Pins bit-parallel fault batching to a shared pre-compiled program
    /// (`None`, the default, disables batching).
    pub fn batch(mut self, batch: Option<&'d BatchProgram>) -> Self {
        self.batch = batch;
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
    pub fn session(design: &'d Design, faults: &'d FaultList) -> EngineSession<'d> {
        EngineSession {
            design,
            faults,
            mode: RedundancyMode::Full,
            drop_detected: true,
            batch: None,
        }
    }

    /// Creates an engine over `design` with the fault batch `faults`, in
    /// redundancy mode `mode`, with batching off, and
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

    fn build(session: EngineSession<'d>) -> Self {
        let EngineSession {
            design,
            faults,
            mode,
            drop_detected,
            batch,
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
        // Pre-size each signal's diff list from its sited fault count —
        // the guaranteed-resident entries.
        let diffs = site_faults
            .iter()
            .map(|v| DiffList::with_capacity(v.len()))
            .collect();
        let mut beh_readers: Vec<Vec<BehavioralId>> = vec![Vec::new(); n_sig];
        for (bi, node) in design.behavioral_nodes().iter().enumerate() {
            for s in &node.reads {
                beh_readers[s.index()].push(BehavioralId::from_index(bi));
            }
        }
        let sited: Vec<SignalId> = (0..n_sig)
            .filter(|&i| !site_faults[i].is_empty())
            .map(SignalId::from_index)
            .collect();
        let state = EngineState {
            design,
            faults,
            mode,
            drop_detected,
            batch,
            diffs,
            clean_sig: site_faults.iter().map(Vec::is_empty).collect(),
            site_faults,
            local_sites,
            rtl_vis: vec![0; design.rtl_nodes().len()],
            beh_vis: vec![0; design.behavioral_nodes().len()],
            beh_readers,
            alive_count: faults.len() as u64,
            commit_seen: vec![0; faults.len()],
            commit_epoch: 0,
            edge_prev_diffs: vec![DiffList::new(); n_sig],
            acts: Vec::new(),
            pending_nba: Vec::new(),
            nba_pool: Pool::default(),
            phase: Phase::Settle,
            nba_moved: false,
            span_start: None,
            coverage: CoverageReport::new(faults.len()),
            stats: RedundancyStats::default(),
            step_index: 0,
        };
        let hook = FaultHook {
            state,
            ws: Workspace::default(),
        };
        let mut sim = Simulator::unsettled(Evaluator::tree(design), hook);
        // Initial state: materialize the stuck-at forces against the
        // power-on values (all-X), then evaluate everything once.
        for sig in sited {
            sim.recommit(sig);
        }
        sim.settle_all();
        EraserEngine { sim }
    }

    fn state(&self) -> &EngineState<'d> {
        &self.sim.hook().state
    }

    /// The coverage accumulated so far.
    pub fn coverage(&self) -> &CoverageReport {
        &self.state().coverage
    }

    /// The redundancy instrumentation counters.
    pub fn stats(&self) -> &RedundancyStats {
        &self.state().stats
    }

    /// The good value of a signal.
    pub fn good_value(&self, sig: SignalId) -> &LogicVec {
        self.sim.value(sig)
    }

    /// The value of `sig` as seen by `fault`.
    ///
    /// In [`RedundancyMode::Full`] a fault sited on an activation-local
    /// signal ([`activation_local_signals`]) sees the good value there: no
    /// reader ever sees its force, so the engine never materializes it.
    /// Every other value equals a serial simulation with the force.
    pub fn fault_value(&self, sig: SignalId, fault: FaultId) -> LogicVec {
        FaultView::new(&self.state().diffs, self.sim.values(), fault)
            .value(sig)
            .clone()
    }

    /// Number of faults still being simulated.
    pub fn live_faults(&self) -> u64 {
        self.state().alive_count
    }

    /// Drives a primary input, by borrow — no clone, no resize for
    /// width-matching values. An unchanged value is skipped outright:
    /// committing an identical good value re-derives exactly the same
    /// forced entries and diff state (faults sited on the input keep their
    /// materialized stuck-bit diff entries from construction), so there is
    /// nothing to schedule.
    pub fn set_input(&mut self, sig: SignalId, value: &LogicVec) {
        self.sim.set_input(sig, value);
    }

    /// Runs the stimulus from the engine's **current step index** — step 0
    /// for a freshly built engine — with observation (and optional fault
    /// dropping) after every settle step. Stimulus values are read by
    /// borrow — the whole campaign loop is clone-free.
    ///
    /// With fault dropping on, the run **stops as soon as no fault is left
    /// alive**: every fault of the batch has its first detection recorded,
    /// nothing later can change the coverage, and settling the good
    /// network to the end of the stimulus would be work no fault needs.
    /// With dropping off the whole stimulus is always replayed.
    pub fn run(&mut self, stim: &Stimulus) {
        for step in stim.steps.iter_from(self.state().step_index) {
            let state = self.state();
            if state.drop_detected && state.alive_count == 0 {
                return;
            }
            self.sim.replay_step(step);
            self.observe();
            self.sim.hook_mut().state.step_index += 1;
        }
    }

    /// Settles the design (good network and all fault differences) to
    /// stability.
    ///
    /// # Panics
    ///
    /// Panics if the design does not settle (see [`Simulator::step`]).
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Checks all observation points (primary outputs) for detectable
    /// good/fault mismatches; records detections and drops detected faults
    /// when configured.
    pub fn observe(&mut self) {
        let (good, hook) = self.sim.values_and_hook_mut();
        hook.state.observe(&mut hook.ws, good);
    }
}

impl EngineState<'_> {
    /// True when no fault is visible on `sig`: its site list and its diff
    /// list are empty (a site list holds live faults only). A commit to a
    /// clean signal and an NBA block of good writes to a clean target leave
    /// nothing for the hook to do beyond the kernel's good work — good-only
    /// lanes 1 and 4 of `good_only_commit`. Lanes 2 and 3 read the
    /// visible-input counts alone: the commit re-applies sited forces
    /// whatever the node does. The predicate is read node by node, so the
    /// lanes switch on as dropping thins the live set. It is one load of
    /// the flag the list updates keep ([`refresh_clean`](Self::refresh_clean)).
    #[inline]
    fn clean(&self, sig: SignalId) -> bool {
        self.clean_sig[sig.index()]
    }

    /// Re-derives `sig`'s [`clean`](Self::clean) flag after its site list
    /// or its diff list changed.
    fn refresh_clean(&mut self, sig: SignalId) {
        let si = sig.index();
        self.clean_sig[si] = self.site_faults[si].is_empty() && self.diffs[si].is_empty();
    }

    /// The open activation's record ([`Phase::Activation`]).
    fn activation(&self, slot: Option<usize>) -> &Activation {
        slot.map_or(&PLAIN, |p| &self.acts[p].1)
    }

    /// The open NBA block's fault side ([`Phase::Nba`]).
    fn nba_side(&self, slot: Option<usize>) -> &PendingNba {
        slot.map_or(&GOOD_ONLY, |p| &self.pending_nba[p].1)
    }

    /// The faults of the open activation or NBA block whose network did
    /// not fire; none in the settle phase.
    fn suppressed(&self) -> &[FaultId] {
        match self.phase {
            Phase::Settle => &[],
            Phase::Activation(slot) => &self.activation(slot).suppressed,
            Phase::Nba(slot) => &self.nba_side(slot).suppressed,
        }
    }

    /// Keeps the visible-input counts and `sig`'s clean flag after its
    /// diff list changed, given whether it was empty before: a list that
    /// turned non-empty (empty) adds (takes) one visible input to (from)
    /// every node that reads `sig`.
    fn settle_visibility(&mut self, sig: SignalId, was_empty: bool) {
        if self.diffs[sig.index()].is_empty() == was_empty {
            return;
        }
        self.refresh_clean(sig);
        let step = |count: &mut u32| {
            *count = if was_empty { *count + 1 } else { *count - 1 };
        };
        for &n in self.design.rtl_fanout(sig) {
            step(&mut self.rtl_vis[n.index()]);
        }
        for &b in &self.beh_readers[sig.index()] {
            step(&mut self.beh_vis[b.index()]);
        }
    }
}

/// The fault work at each of the kernel's hook points; see the module docs.
impl Hook for FaultHook<'_> {
    #[inline]
    fn rtl_evaluated(&mut self, good: &Good<'_>, id: RtlNodeId) {
        self.state.rtl_evaluated(&mut self.ws, good, id);
    }

    fn activate(
        &mut self,
        good: &Good<'_>,
        ctx: &mut ExecCtx,
        id: BehavioralId,
        edge: Option<usize>,
        out: &mut ExecOutcome,
        targets: &mut Vec<SignalId>,
    ) {
        let (state, ws) = (&mut self.state, &mut self.ws);
        state.process_activation(ws, good, ctx, id, edge, out, targets);
    }

    fn activation_done(&mut self, block: usize, out: &ExecOutcome) -> bool {
        self.state.close_activation(&mut self.ws, block, out)
    }

    #[inline]
    fn commit(
        &mut self,
        good: &Good<'_>,
        sig: SignalId,
        value: &LogicVec,
        good_wrote: bool,
        writes: &[SlotWrite],
    ) -> bool {
        let (state, ws) = (&mut self.state, &mut self.ws);
        if state.good_only_commit(ws, sig) {
            return false;
        }
        state.commit_target(ws, good.values(), sig, value, good_wrote, writes)
    }

    fn edge(
        &mut self,
        good: &Good<'_>,
        index: usize,
        edges: &[(EdgeKind, SignalId)],
        changed: &[bool],
        good_fired: bool,
    ) -> bool {
        let terms = edges.iter().filter(|(_, s)| changed[s.index()]);
        self.state
            .classify_edge(&mut self.ws, good, index, terms, good_fired)
    }

    fn edges_latched(&mut self, changed: &[SignalId]) {
        let state = &mut self.state;
        for si in changed.iter().map(|s| s.index()) {
            if !(state.edge_prev_diffs[si].is_empty() && state.diffs[si].is_empty()) {
                state.edge_prev_diffs[si].assign_from(&state.diffs[si]);
            }
        }
    }

    fn nba_block(&mut self, block: usize, targets: &mut Vec<SignalId>) {
        let state = &mut self.state;
        let slot = (state.pending_nba)
            .binary_search_by_key(&block, |(b, _)| *b)
            .ok();
        let writes = &state.nba_side(slot).fault_writes;
        targets.extend(writes.iter().map(|w| w.target));
        state.phase = Phase::Nba(slot);
    }

    fn nba_done(&mut self, ctx: &mut ExecCtx) -> bool {
        let state = &mut self.state;
        state.phase = Phase::Settle;
        // The write values go back to the execution scratch the
        // interpreter draws assignment buffers from, so wide (>64-bit) NBA
        // targets keep reusing their boxed storage across activations.
        for (_, mut block) in state.pending_nba.drain(..) {
            for w in block.fault_writes.drain(..) {
                ctx.scratch.put(w.value);
            }
            state.nba_pool.put(block);
        }
        std::mem::take(&mut state.nba_moved)
    }

    fn behavioral_span(&mut self, open: bool) {
        let state = &mut self.state;
        if open {
            state.span_start = Some(Instant::now());
        } else if let Some(t0) = state.span_start.take() {
            state.stats.time_behavioral += t0.elapsed();
            for (_, act) in state.acts.drain(..) {
                self.ws.acts.put(act);
            }
        }
    }

    fn settled(&mut self, deltas: u64) {
        self.state.stats.deltas += deltas;
    }
}
