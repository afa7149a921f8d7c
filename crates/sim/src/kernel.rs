//! The good (fault-free) simulator, with its two settle rules — the one
//! settle loop every network runs.
//!
//! The loop is the paper's Fig. 4, once. Its [`Hook`] is called where
//! fault work attaches, in loop order: after each RTL node's good
//! evaluation ([`Hook::rtl_evaluated`]); when a behavioral node activates
//! ([`Hook::activate`], [`Hook::activation_done`]), in runs it may time
//! ([`Hook::behavioral_span`]); at each signal commit, before the good
//! store ([`Hook::commit`]: fanout is scheduled on a good change or a
//! hook-reported one); for each edge-triggered node with a changed term
//! ([`Hook::edge`], then [`Hook::edges_latched`]); at each NBA block
//! commit ([`Hook::nba_block`], [`Hook::nba_done`]); and once after each
//! settled step ([`Hook::settled`]). The kernel alone owns the good
//! values, the dirty set of combinational items, the watch list, the edge
//! latch, the NBA region, input drives, forces, snapshots and the settle
//! bounds.

use crate::evaluator::Evaluator;
use crate::hook::{Good, Hook, NoHook};
use crate::interp::{ExecCtx, ExecOutcome, SlotWrite};
use crate::snapshot::{assign_logic_slice, SimSnapshot};
use crate::stimulus::Stimulus;
use crate::store::ValueStore;
use eraser_ir::{
    BehavioralId, CombItem, Design, EvalBackend, EvalScratch, RtlNodeId, Sensitivity, SignalId,
    TapeProgram,
};
use eraser_logic::{LogicBit, LogicVec};

/// Bound on delta cycles per step and, times the number of combinational
/// items, on active-region evaluations per step — the oscillation guard.
/// Combinational cycles are rejected at design build time; an NBA loop and
/// a level-sensitive block that re-triggers itself are not.
const DELTA_LIMIT: usize = 10_000;

/// A four-state RTL simulator for the fault-free design.
///
/// The evaluation discipline per delta cycle is:
///
/// 1. **Active region** — the combinational items (RTL nodes and
///    level-sensitive behavioral nodes) are drained from one dirty set,
///    lowest [rank](Design::comb_order) first: each item runs at most once
///    per wave, after every dirty item that feeds it, and a value change
///    marks its fanout. The two settle rules, picked at construction,
///    differ only in what is dirty when a delta starts:
///    - *event-driven* ([`Simulator::with_evaluator`] and the constructors
///      built on it): what the last changes marked — work proportional to
///      activity (the IFsim substrate);
///    - *levelized* ([`Simulator::levelized`]): every RTL node, Verilator-
///      fashion — constant whole-design work per delta (the VFsim
///      substrate) — beside what the last changes marked.
///
///    Under both rules a level-sensitive block is marked only when a
///    signal on its sensitivity list changes, so it runs exactly when its
///    `always @(...)` would.
/// 2. **Deferred edge detection** — only after the active region settles are
///    event (edge) expressions evaluated against the previously-latched
///    values, node by node in order of first appearance in the fanout of
///    the changed signals. This ordering is what the ERASER paper
///    generalizes to the concurrent engine to avoid *fake events* (a bad
///    gate prematurely seeing a good value as an edge).
/// 3. Activated sequential nodes execute; their blocking results commit in
///    target order, their non-blocking assignments queue as one block.
/// 4. **NBA region** — queued blocks commit in order, each block's targets
///    in target order with its writes to a target folded, possibly
///    scheduling another delta.
///
/// Both rules commit the same settled values after every step, in the
/// same number of delta cycles; only the work done differs. Forces, edge
/// detection, the NBA region, the hook `H` (see the module docs of
/// `kernel.rs`) and snapshots are shared. See the [crate docs](crate) for
/// a usage example.
#[derive(Debug, Clone)]
pub struct Simulator<'d, H = NoHook> {
    net: Net<'d>,
    hook: H,
}

/// Everything of a [`Simulator`] but its hook, which the loop lends what
/// it reads while the kernel keeps writing.
#[derive(Debug, Clone)]
struct Net<'d> {
    design: &'d Design,
    good: Good<'d>,
    /// The settle rule: the items marked at each delta's start, as words
    /// of `dirty` — every RTL node under the levelized rule, nothing
    /// (empty) under the event-driven one.
    every_delta: Vec<u64>,
    /// The dirty combinational items: bit `r` of the set is item `r` of
    /// [`Design::comb_order`]. No set bit lies in a word below `low`;
    /// `pending` counts the set bits.
    dirty: Vec<u64>,
    low: usize,
    pending: usize,
    watch_changed: Vec<SignalId>,
    watch_flag: Vec<bool>,
    /// Dense flags of `detect_edges`: signal changed this delta, node
    /// already on the worklist.
    changed_flag: Vec<bool>,
    edge_queued: Vec<bool>,
    /// The NBA region: one block of writes per activation, block `i`
    /// ending at `nba_ends[i]`.
    nba: Vec<SlotWrite>,
    nba_ends: Vec<usize>,
    /// Permanently forced bits (`force` command semantics): re-applied on
    /// every write to the signal.
    forces: Vec<(SignalId, u32, LogicBit)>,
    /// Total delta cycles executed (exposed for instrumentation).
    deltas: u64,
    /// Steps settled by [`Simulator::step`], named when one does not settle.
    steps: usize,

    // Reusable workspace — all steady-state stepping works out of these
    // buffers, so `step()` performs zero heap allocations once warm. All
    // value temporaries come from a scratch arena at the target's storage
    // class (`take_for`), so buffers for >64-bit signals keep cycling
    // among wide uses instead of being reshaped against narrow ones. RTL
    // outputs and behavioral execution (with the commit temporaries) keep
    // apart, so each arena holds the few widths its own evaluations use.
    rtl_scratch: EvalScratch,
    ctx: ExecCtx,
    /// Behavioral-execution outcome, reused across activations.
    outcome: ExecOutcome,
    /// Swap buffer for draining `watch_changed` without losing capacity.
    ws_changed: Vec<SignalId>,
    /// Edge nodes of the current delta.
    ws_nodes: Vec<BehavioralId>,
    /// Edge-activated nodes of the current delta.
    ws_activated: Vec<BehavioralId>,
    /// Targets of the blocking or NBA commit in progress.
    ws_targets: Vec<SignalId>,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator with all signals at `X` and performs the initial
    /// evaluation (constants and combinational logic settle).
    pub fn new(design: &'d Design) -> Self {
        Self::with_evaluator(Evaluator::tree(design))
    }

    /// Retired: builds what [`Simulator::new`] builds, whatever `backend`
    /// says. It stays only until the benchmark stops calling it.
    pub fn with_backend(design: &'d Design, _backend: EvalBackend) -> Self {
        Self::new(design)
    }

    /// Retired: builds what [`Simulator::new`] builds; the retired
    /// [`TapeProgram`] holds nothing. It stays only until the benchmark
    /// stops calling it.
    pub fn with_tapes(design: &'d Design, _tapes: &'d TapeProgram) -> Self {
        Self::new(design)
    }

    /// Creates an event-driven simulator over `eval`'s design — the form
    /// the other event-driven constructors reduce to.
    pub fn with_evaluator(eval: Evaluator<'d>) -> Self {
        Self::build(eval, false)
    }

    /// Creates a simulator over `eval`'s design that settles under the
    /// levelized rule: every RTL node, every delta, in topological order.
    pub fn levelized(eval: Evaluator<'d>) -> Self {
        Self::build(eval, true)
    }

    fn build(eval: Evaluator<'d>, levelized: bool) -> Self {
        let mut sim = Simulator::unsettled(eval, NoHook);
        if levelized {
            sim.net.levelize();
        }
        sim.settle_all();
        sim
    }
}

impl<'d, H: Hook> Simulator<'d, H> {
    /// Creates an event-driven simulator over `eval`'s design with `hook`
    /// attached, at power-on: every signal `X`, nothing evaluated until
    /// [`Simulator::settle_all`]. In between, the hook's owner may
    /// [recommit](Simulator::recommit) signals.
    pub fn unsettled(eval: Evaluator<'d>, hook: H) -> Self {
        let design = eval.design();
        let (n_sig, n_beh) = (design.num_signals(), design.behavioral_nodes().len());
        let edge_prev = design.signals().iter().map(|s| LogicVec::new_x(s.width));
        let net = Net {
            design,
            good: Good {
                eval,
                values: ValueStore::new(design),
                edge_prev: edge_prev.collect(),
            },
            every_delta: Vec::new(),
            dirty: vec![0; design.comb_order().len().div_ceil(64)],
            low: 0,
            pending: 0,
            watch_changed: Vec::new(),
            watch_flag: vec![false; n_sig],
            changed_flag: vec![false; n_sig],
            edge_queued: vec![false; n_beh],
            nba: Vec::new(),
            nba_ends: Vec::new(),
            forces: Vec::new(),
            deltas: 0,
            steps: 0,
            rtl_scratch: EvalScratch::default(),
            ctx: ExecCtx::new(),
            outcome: ExecOutcome::default(),
            ws_changed: Vec::new(),
            ws_nodes: Vec::new(),
            ws_activated: Vec::new(),
            ws_targets: Vec::new(),
        };
        Simulator { net, hook }
    }

    /// Schedules every RTL node and level-sensitive behavioral node, then
    /// settles: the initial evaluation (not counted as a step).
    pub fn settle_all(&mut self) {
        self.net.mark_all();
        self.settle();
    }

    /// The design being simulated.
    pub fn design(&self) -> &'d Design {
        self.net.design
    }

    /// The current value of a signal.
    pub fn value(&self, sig: SignalId) -> &LogicVec {
        self.net.good.values.get(sig)
    }

    /// The full value store.
    pub fn values(&self) -> &ValueStore {
        &self.net.good.values
    }

    /// Total delta cycles executed so far.
    pub fn deltas(&self) -> u64 {
        self.net.deltas
    }

    /// The attached hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// The attached hook, mutably.
    pub fn hook_mut(&mut self) -> &mut H {
        &mut self.hook
    }

    /// The value store and, mutably, the hook.
    pub fn values_and_hook_mut(&mut self) -> (&ValueStore, &mut H) {
        (&self.net.good.values, &mut self.hook)
    }

    /// Drives a primary input (or, for testing, forces any signal) to
    /// `value`, by borrow — a width-matching value is committed straight
    /// from the caller's storage (no resize, no clone), an unchanged value
    /// skips the commit entirely, and a mismatched width resizes through a
    /// pooled temporary. Fanout is scheduled if the value changed; call
    /// [`Simulator::step`] to propagate.
    pub fn set_input(&mut self, sig: SignalId, value: &LogicVec) {
        let width = self.net.design.width(sig);
        if value.width() == width {
            if !self.net.unchanged(sig, value) {
                self.commit(sig, value, true, &[]);
            }
            return;
        }
        let mut resized = self.net.ctx.scratch.take_for(width);
        resized.copy_resized(value, width);
        if !self.net.unchanged(sig, &resized) {
            self.commit(sig, &resized, true, &[]);
        }
        self.net.ctx.scratch.put(resized);
    }

    /// Commits `sig`'s current value again, through the hook: the state it
    /// keeps on the signal is re-derived, fanout scheduled if that changed.
    pub fn recommit(&mut self, sig: SignalId) {
        self.commit_current(sig, true, &[]);
    }

    /// Commits `sig`'s current value as written by `writes` (`good_wrote`
    /// as in [`Hook::commit`]).
    fn commit_current(&mut self, sig: SignalId, good_wrote: bool, writes: &[SlotWrite]) {
        let net = &mut self.net;
        let mut current = net.ctx.scratch.take_for(net.design.width(sig));
        current.assign_from(net.good.values.get(sig));
        self.commit(sig, &current, good_wrote, writes);
        self.net.ctx.scratch.put(current);
    }

    /// Permanently forces one bit of a signal — the `force` command used by
    /// force-based fault injection (the paper's IFsim baseline). The force
    /// is applied immediately and re-applied on every subsequent write.
    pub fn add_force(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.net.forces.push((sig, bit, value));
        self.recommit(sig);
    }

    /// [`Simulator::add_force`], then settles (not counted as a step): the
    /// stuck-at injection of the serial baselines, which settles the force
    /// before the next stimulus step so every engine agrees on when a
    /// forced power-on edge (`X` -> stuck value) fires.
    pub fn force_bit(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.add_force(sig, bit, value);
        self.settle();
    }

    /// Applies forces (if any), tells the hook, then stores the value in
    /// place (its slot's storage reused, so steady-state commits never
    /// allocate), scheduling fanout on a good or hook-reported change.
    /// Returns whether the good value changed.
    #[inline]
    fn commit(
        &mut self,
        sig: SignalId,
        value: &LogicVec,
        good_wrote: bool,
        writes: &[SlotWrite],
    ) -> bool {
        let net = &mut self.net;
        if net.forces.is_empty() {
            let view_changed = self.hook.commit(&net.good, sig, value, good_wrote, writes);
            return net.store(sig, value, view_changed);
        }
        let mut forced = net.ctx.scratch.take_for(value.width());
        forced.assign_from(value);
        for &(fs, bit, b) in &net.forces {
            if fs == sig && bit < forced.width() {
                forced.set_bit(bit, b);
            }
        }
        let view_changed = self
            .hook
            .commit(&net.good, sig, &forced, good_wrote, writes);
        let changed = net.store(sig, &forced, view_changed);
        net.ctx.scratch.put(forced);
        changed
    }

    /// Runs delta cycles until the design is stable.
    ///
    /// # Panics
    ///
    /// Panics with `design did not settle within …`, naming the step, when
    /// the delta bound or the active region's evaluation bound runs out —
    /// an oscillation: an NBA loop, or a level-sensitive block
    /// re-triggering itself.
    pub fn step(&mut self) {
        self.settle();
        self.net.steps += 1;
    }

    /// One settle step, the loop of the type docs.
    fn settle(&mut self) {
        let start = self.net.deltas;
        let mut budget = DELTA_LIMIT * self.net.design.comb_order().len().max(1);
        for _ in 0..DELTA_LIMIT {
            self.net.deltas += 1;
            if !self.net.every_delta.is_empty() {
                self.net.mark_every_delta();
            }
            self.settle_active(&mut budget);
            let n_activated = self.detect_edges();
            if n_activated > 0 {
                self.hook.behavioral_span(true);
                for i in 0..n_activated {
                    self.run_behavioral(self.net.ws_activated[i], Some(i));
                }
                self.hook.behavioral_span(false);
            }
            let committed = self.commit_nba();
            if !committed && n_activated == 0 && self.net.is_quiet() {
                self.hook.settled(self.net.deltas - start);
                return;
            }
        }
        let step = self.net.steps;
        panic!("design did not settle within {DELTA_LIMIT} delta cycles at step {step}");
    }

    /// Convenience: one full clock cycle on `clk` (drive low, settle, drive
    /// high, settle) — one rising edge per call.
    pub fn clock_cycle(&mut self, clk: SignalId) {
        self.set_input(clk, &LogicVec::from_u64(1, 0));
        self.step();
        self.set_input(clk, &LogicVec::from_u64(1, 1));
        self.step();
    }

    /// Applies one stimulus step's input changes and settles the design.
    pub fn replay_step(&mut self, changes: &[(SignalId, LogicVec)]) {
        for (sig, val) in changes {
            self.set_input(*sig, val);
        }
        self.step();
    }

    /// Applies every step of a stimulus, settling after each. Values are
    /// read by borrow — the whole replay is clone-free.
    pub fn run_stimulus(&mut self, stim: &Stimulus) {
        for step in &stim.steps {
            self.replay_step(step);
        }
    }

    /// Captures the full settle-point state into `snap`, reusing its
    /// buffers (see [`SimSnapshot`]); the hook's own state is not in it.
    ///
    /// # Panics
    ///
    /// Panics if called between [`Simulator::set_input`] and
    /// [`Simulator::step`] — snapshots are defined at settle points only.
    pub fn capture_into(&self, snap: &mut SimSnapshot) {
        let net = &self.net;
        assert!(net.is_quiet(), "capture requires a settled simulator");
        assign_logic_slice(&mut snap.values, net.good.values.as_slice());
        assign_logic_slice(&mut snap.edge_prev, &net.good.edge_prev);
        snap.forces.clear();
        snap.forces.extend_from_slice(&net.forces);
        snap.deltas = net.deltas;
        snap.steps = net.steps;
    }

    /// Restores a captured settle-point state, discarding all current state
    /// and pending work. The snapshot must come from a simulator over the
    /// same design.
    pub fn restore_from(&mut self, snap: &SimSnapshot) {
        let net = &mut self.net;
        net.good.values.restore_from_slice(&snap.values);
        assert_eq!(
            net.good.edge_prev.len(),
            snap.edge_prev.len(),
            "snapshot covers a different design"
        );
        for (slot, v) in net.good.edge_prev.iter_mut().zip(&snap.edge_prev) {
            slot.assign_from(v);
        }
        net.forces.clear();
        net.forces.extend_from_slice(&snap.forces);
        net.deltas = snap.deltas;
        net.steps = snap.steps;
        // Re-establish the quiescent scheduling state the snapshot was
        // taken in.
        net.clear_dirty();
        net.watch_flag.fill(false);
        net.watch_changed.clear();
        net.nba.clear();
        net.nba_ends.clear();
    }

    // ---- internals ----

    /// The active region: evaluates the dirty combinational items to a
    /// fixpoint, popping the item of lowest rank each time. An item's
    /// fanout ranks above it, so a wave runs each dirty item once, after
    /// all of its dirty producers. A run of consecutive behavioral
    /// activations is one [`Hook::behavioral_span`]. Each evaluation
    /// spends one unit of the step's `budget`.
    fn settle_active(&mut self, budget: &mut usize) {
        let mut span = false;
        while let Some(item) = self.net.pop() {
            self.net.spend(budget);
            let beh = matches!(item, CombItem::Beh(_));
            if beh != span {
                span = beh;
                self.hook.behavioral_span(span);
            }
            match item {
                CombItem::Rtl(id) => self.run_rtl(id),
                CombItem::Beh(id) => self.run_behavioral(id, None),
            }
        }
        if span {
            self.hook.behavioral_span(false);
        }
    }

    /// Evaluates one RTL node and commits its output.
    #[inline]
    fn run_rtl(&mut self, id: RtlNodeId) {
        let net = &mut self.net;
        let output = net.design.rtl_node(id).output;
        let mut out = net.rtl_scratch.take_for(net.design.width(output));
        let good = &net.good;
        good.eval.rtl(id, &good.values, &mut out);
        self.hook.rtl_evaluated(good, id);
        self.commit(output, &out, true, &[]);
        self.net.rtl_scratch.put(out);
    }

    /// Executes one behavioral activation (`edge` as in
    /// [`Hook::activate`]): blocking results commit in target order, the
    /// non-blocking writes queue as one NBA block.
    fn run_behavioral(&mut self, id: BehavioralId, edge: Option<usize>) {
        let net = &mut self.net;
        let mut out = std::mem::take(&mut net.outcome);
        let mut targets = std::mem::take(&mut net.ws_targets);
        self.hook
            .activate(&net.good, &mut net.ctx, id, edge, &mut out, &mut targets);
        if !(out.blocking.is_empty() && targets.is_empty()) {
            out.blocking.sort_unstable_by_key(|(s, _)| *s);
            targets.extend(out.blocking.iter().map(|(s, _)| *s));
            targets.sort_unstable();
            targets.dedup();
        }
        for &t in &targets {
            match out.blocking.binary_search_by_key(&t, |(s, _)| *s) {
                Ok(k) => _ = self.commit(t, &out.blocking[k].1, true, &out.blocking_writes),
                // Only the hook's networks wrote it: the good value stays.
                Err(_) => self.commit_current(t, false, &out.blocking_writes),
            }
        }
        targets.clear();
        let net = &mut self.net;
        net.ws_targets = targets;
        if self.hook.activation_done(net.nba_ends.len(), &out) || !out.nba.is_empty() {
            net.nba.append(&mut out.nba);
            net.nba_ends.push(net.nba.len());
        }
        net.outcome = out;
    }

    /// Deferred edge detection: every edge-triggered node with a term on a
    /// signal changed since the last detection, in order of first
    /// appearance, compares those terms' bit 0 (per common simulator
    /// behavior) against the edge latch and asks the hook whether it
    /// activates; the activated nodes go to `ws_activated`, whose length
    /// is returned. Then the changed signals are latched.
    fn detect_edges(&mut self) -> usize {
        let net = &mut self.net;
        net.ws_activated.clear();
        std::mem::swap(&mut net.watch_changed, &mut net.ws_changed);
        let design = net.design;
        net.ws_nodes.clear();
        for &sig in &net.ws_changed {
            net.watch_flag[sig.index()] = false;
            net.changed_flag[sig.index()] = true;
            for &b in design.edge_fanout(sig) {
                if !std::mem::replace(&mut net.edge_queued[b.index()], true) {
                    net.ws_nodes.push(b);
                }
            }
        }
        for &b in &net.ws_nodes {
            net.edge_queued[b.index()] = false;
            let Sensitivity::Edges(edges) = &design.behavioral(b).sensitivity else {
                continue;
            };
            let good = &net.good;
            let good_fired = edges.iter().any(|(kind, s)| {
                let (prev, cur) = (good.edge_prev(*s), good.values.get(*s));
                net.changed_flag[s.index()] && kind.matches(prev.bit_or_x(0), cur.bit_or_x(0))
            });
            let index = net.ws_activated.len();
            if self
                .hook
                .edge(good, index, edges, &net.changed_flag, good_fired)
            {
                net.ws_activated.push(b);
            }
        }
        for &sig in &net.ws_changed {
            net.changed_flag[sig.index()] = false;
            let good = &mut net.good;
            good.edge_prev[sig.index()].assign_from(good.values.get(sig));
        }
        if !net.ws_changed.is_empty() {
            self.hook.edges_latched(&net.ws_changed);
        }
        net.ws_changed.clear();
        net.ws_activated.len()
    }

    /// Commits the NBA region block by block, each block's targets in
    /// target order with its writes to a target folded into one commit:
    /// the block's writes are ordered by target once, and one forward
    /// cursor hands each ascending target its own run of them, so after
    /// the sort a register bank of N flops folds in O(N), not O(N²).
    /// Returns whether another delta is needed for it.
    fn commit_nba(&mut self) -> bool {
        if self.net.nba_ends.is_empty() {
            return false;
        }
        let mut writes = std::mem::take(&mut self.net.nba);
        let mut ends = std::mem::take(&mut self.net.nba_ends);
        let mut targets = std::mem::take(&mut self.net.ws_targets);
        let (mut any, mut start) = (false, 0);
        for (block, &end) in ends.iter().enumerate() {
            let block_writes = &mut writes[start..end];
            start = end;
            SlotWrite::sort_by_target(block_writes);
            let block_writes = &*block_writes;
            targets.extend(block_writes.iter().map(|w| w.target));
            self.hook.nba_block(block, &mut targets);
            targets.sort_unstable();
            targets.dedup();
            let mut rest = block_writes;
            for &t in &targets {
                let good = SlotWrite::split_run(&mut rest, t);
                let net = &mut self.net;
                let mut next = net.ctx.scratch.take_for(net.design.width(t));
                next.assign_from(net.good.values.get(t));
                for w in good {
                    w.apply_assign(&mut next);
                }
                any |= self.commit(t, &next, !good.is_empty(), good);
                self.net.ctx.scratch.put(next);
            }
            targets.clear();
        }
        // The write values go back to the scratch the interpreter draws
        // assignment buffers from: on wide designs these are the boxed
        // buffers, and dropping them would force a fresh allocation every
        // time a >64-bit signal commits.
        let net = &mut self.net;
        for w in writes.drain(..) {
            net.ctx.scratch.put(w.value);
        }
        ends.clear();
        (net.nba, net.nba_ends, net.ws_targets) = (writes, ends, targets);
        let moved = self.hook.nba_done(&mut net.ctx);
        any || moved
    }
}

impl Net<'_> {
    /// True when writing `value` to `sig` changes nothing: no force to
    /// re-apply and the same value stored.
    #[inline]
    fn unchanged(&self, sig: SignalId, value: &LogicVec) -> bool {
        self.forces.is_empty() && self.good.values.get(sig) == value
    }

    /// Stores a (forced) value; schedules fanout when it or, per the hook,
    /// a view changed. Returns whether the value changed.
    #[inline]
    fn store(&mut self, sig: SignalId, value: &LogicVec, view_changed: bool) -> bool {
        let changed = self.good.values.commit(sig, value);
        if changed || view_changed {
            self.schedule_fanout(sig);
        }
        changed
    }

    /// True if no work is scheduled — the settle-point condition.
    #[inline]
    fn is_quiet(&self) -> bool {
        self.pending == 0 && self.watch_changed.is_empty() && self.nba_ends.is_empty()
    }

    /// Spends one active-region evaluation of the step's budget.
    #[inline]
    fn spend(&self, budget: &mut usize) {
        *budget = budget.checked_sub(1).unwrap_or_else(|| {
            let limit = DELTA_LIMIT * self.design.comb_order().len().max(1);
            let step = self.steps;
            panic!("design did not settle within {limit} active-region evaluations at step {step}")
        });
    }

    /// Marks the combinational item of rank `rank` dirty.
    #[inline]
    fn mark(&mut self, rank: usize) {
        let (word, bit) = (rank / 64, 1u64 << (rank % 64));
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.low = if self.pending == 0 {
                word
            } else {
                self.low.min(word)
            };
            self.pending += 1;
        }
    }

    /// Switches to the levelized rule: every RTL node's rank marked at
    /// each delta's start.
    fn levelize(&mut self) {
        let mut mask = vec![0u64; self.dirty.len()];
        for (rank, item) in self.design.comb_order().iter().enumerate() {
            if let CombItem::Rtl(_) = item {
                mask[rank / 64] |= 1 << (rank % 64);
            }
        }
        self.every_delta = mask;
    }

    /// Marks the items of `every_delta` dirty.
    fn mark_every_delta(&mut self) {
        let mut pending = 0;
        for (word, mask) in self.dirty.iter_mut().zip(&self.every_delta) {
            *word |= mask;
            pending += word.count_ones() as usize;
        }
        self.pending = pending;
        self.low = self.dirty.iter().position(|&w| w != 0).unwrap_or(0);
    }

    /// Marks every combinational item dirty.
    fn mark_all(&mut self) {
        let n = self.design.comb_order().len();
        let spare = 64 * self.dirty.len() - n;
        self.dirty.fill(!0);
        if let Some(last) = self.dirty.last_mut() {
            *last >>= spare;
        }
        (self.low, self.pending) = (0, n);
    }

    /// Takes the dirty combinational item of lowest rank off the set.
    #[inline]
    fn pop(&mut self) -> Option<CombItem> {
        if self.pending == 0 {
            return None;
        }
        while self.dirty[self.low] == 0 {
            self.low += 1;
        }
        let word = &mut self.dirty[self.low];
        let rank = self.low * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        self.pending -= 1;
        Some(self.design.comb_order()[rank])
    }

    /// Schedules everything that reads `sig` after its value changed.
    #[inline]
    fn schedule_fanout(&mut self, sig: SignalId) {
        for &n in self.design.rtl_fanout(sig) {
            self.mark(self.design.rtl_rank(n));
        }
        for &b in self.design.level_fanout(sig) {
            if let Some(rank) = self.design.beh_rank(b) {
                self.mark(rank);
            }
        }
        if !self.design.edge_fanout(sig).is_empty() && !self.watch_flag[sig.index()] {
            self.watch_flag[sig.index()] = true;
            self.watch_changed.push(sig);
        }
    }

    /// Drops the scheduled active-region work, on restore.
    fn clear_dirty(&mut self) {
        self.dirty.fill(0);
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StimulusBuilder;
    use eraser_frontend::compile;
    use eraser_ir::Driver;

    fn v(w: u32, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn combinational_propagation() {
        let d = compile(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [3:0] x);
               wire [3:0] t;
               assign t = a & b;
               assign x = t | 4'h1;
             endmodule",
            None,
        )
        .unwrap();
        let a = d.find_signal("a").unwrap();
        let b = d.find_signal("b").unwrap();
        let x = d.find_signal("x").unwrap();
        let mut sim = Simulator::new(&d);
        sim.set_input(a, &v(4, 0xc));
        sim.set_input(b, &v(4, 0xa));
        sim.step();
        assert_eq!(sim.value(x).to_u64(), Some(0x9));
    }

    /// Records the combinational items each settle step evaluates, in
    /// order, with the step's delta count.
    #[derive(Default)]
    struct ItemOrder {
        step: Vec<CombItem>,
        steps: Vec<(Vec<CombItem>, u64)>,
    }

    impl Hook for ItemOrder {
        fn rtl_evaluated(&mut self, _good: &Good<'_>, id: RtlNodeId) {
            self.step.push(CombItem::Rtl(id));
        }

        fn activate(
            &mut self,
            good: &Good<'_>,
            ctx: &mut ExecCtx,
            id: BehavioralId,
            edge: Option<usize>,
            out: &mut ExecOutcome,
            _targets: &mut Vec<SignalId>,
        ) {
            if edge.is_none() {
                self.step.push(CombItem::Beh(id));
            }
            good.eval
                .behavioral(id, &good.values, &mut crate::NoopMonitor, ctx, out);
        }

        fn settled(&mut self, deltas: u64) {
            self.steps.push((std::mem::take(&mut self.step), deltas));
        }
    }

    #[test]
    fn reconvergent_rtl_nodes_run_once_after_their_producers() {
        // A diamond a -> b, c -> m -> dd, with the level-sensitive block
        // writing m inside it, then e = dd | b reconverging on b.
        let d = compile(
            "module m(input wire [3:0] a, output wire [3:0] e);
               wire [3:0] b, c, dd;
               reg [3:0] m;
               assign b = a + 4'h1;
               assign c = a ^ 4'h5;
               always @* m = b - c;
               assign dd = m & c;
               assign e = dd | b;
             endmodule",
            None,
        )
        .unwrap();
        let a = d.find_signal("a").unwrap();
        let mut sim = Simulator::unsettled(Evaluator::tree(&d), ItemOrder::default());
        sim.settle_all();
        for x in [0x3, 0xa, 0x6, 0xf, 0x0] {
            sim.set_input(a, &v(4, x));
            sim.step();
        }
        let steps = &sim.hook().steps;
        assert_eq!(steps.len(), 6);
        for (k, (fired, _)) in steps.iter().enumerate() {
            assert!(fired.contains(&CombItem::Beh(BehavioralId::from_index(0))));
            for (pos, &item) in fired.iter().enumerate() {
                let reads = match item {
                    CombItem::Rtl(id) => &d.rtl_node(id).inputs,
                    CombItem::Beh(id) => &d.behavioral(id).reads,
                };
                let producers = reads.iter().filter_map(|s| match d.driver(*s)? {
                    Driver::Rtl(p) => Some(CombItem::Rtl(p)),
                    Driver::Behavioral(b) => Some(CombItem::Beh(b)),
                    Driver::Input => None,
                });
                // Neither the item nor a producer of it runs again later.
                for p in producers.chain([item]) {
                    let later = &fired[pos + 1..];
                    assert!(
                        !later.contains(&p),
                        "step {k}: {p:?} after {item:?} in {fired:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counter_counts() {
        let d = compile(
            "module m(input wire clk, input wire rst, output reg [7:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 8'h00; else q <= q + 8'h01;
               end
             endmodule",
            None,
        )
        .unwrap();
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let q = d.find_signal("q").unwrap();
        let mut sim = Simulator::new(&d);
        sim.set_input(rst, &v(1, 1));
        sim.clock_cycle(clk);
        assert_eq!(sim.value(q).to_u64(), Some(0));
        sim.set_input(rst, &v(1, 0));
        for _ in 0..3 {
            sim.clock_cycle(clk);
        }
        assert_eq!(sim.value(q).to_u64(), Some(3));
    }

    #[test]
    fn nba_swap_is_race_free() {
        let d = compile(
            "module m(input wire clk, input wire ld, input wire [3:0] a,
                      output reg [3:0] x, output reg [3:0] y);
               always @(posedge clk) begin
                 if (ld) begin x <= a; y <= 4'h0; end
                 else begin x <= y; y <= x; end
               end
             endmodule",
            None,
        )
        .unwrap();
        let clk = d.find_signal("clk").unwrap();
        let ld = d.find_signal("ld").unwrap();
        let a = d.find_signal("a").unwrap();
        let x = d.find_signal("x").unwrap();
        let y = d.find_signal("y").unwrap();
        let mut sim = Simulator::new(&d);
        sim.set_input(ld, &v(1, 1));
        sim.set_input(a, &v(4, 9));
        sim.clock_cycle(clk);
        sim.set_input(ld, &v(1, 0));
        sim.clock_cycle(clk);
        // Swapped simultaneously through NBAs.
        assert_eq!(sim.value(x).to_u64(), Some(0));
        assert_eq!(sim.value(y).to_u64(), Some(9));
        sim.clock_cycle(clk);
        assert_eq!(sim.value(x).to_u64(), Some(9));
        assert_eq!(sim.value(y).to_u64(), Some(0));
    }

    /// One NBA block writes its targets out of target order: `z` whole and
    /// then one bit of it, `y` by two part selects and then (when `a[0]`)
    /// whole, and `x`, the lowest target, last. Each target folds its own
    /// writes in execution order.
    #[test]
    fn nba_block_folds_each_target_in_execution_order() {
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [7:0] a,
                      output reg [7:0] x, output reg [7:0] y, output reg [7:0] z);
               always @(posedge clk) begin
                 if (rst) begin z <= 8'h00; y <= 8'h00; x <= 8'h00; end
                 else begin
                   z <= z ^ a;
                   y[3:0] <= a[7:4] ^ x[3:0];
                   y[7:4] <= a[3:0];
                   if (a[0]) y <= ~(y + z);
                   z[7] <= x[0];
                   x <= x + a;
                 end
               end
             endmodule",
            None,
        )
        .unwrap();
        let f = |n: &str| d.find_signal(n).unwrap();
        let (clk, rst, a, x, y, z) = (f("clk"), f("rst"), f("a"), f("x"), f("y"), f("z"));
        assert!(
            x < y && y < z,
            "the block writes its targets in descending order"
        );
        let mut sim = Simulator::new(&d);
        sim.set_input(rst, &v(1, 1));
        sim.clock_cycle(clk);
        sim.set_input(rst, &v(1, 0));
        let (mut mx, mut my, mut mz) = (0u64, 0u64, 0u64);
        for av in [0x5a, 0xa5, 0x3c, 0xff, 0x81, 0x00, 0x42, 0x37] {
            sim.set_input(a, &v(8, av));
            sim.clock_cycle(clk);
            let ny = if av & 1 == 1 {
                !(my + mz) & 0xff
            } else {
                ((av >> 4) ^ (mx & 0xf)) | ((av & 0xf) << 4)
            };
            let nz = ((mz ^ av) & 0x7f) | ((mx & 1) << 7);
            (mx, my, mz) = ((mx + av) & 0xff, ny, nz);
            for (sig, want) in [(x, mx), (y, my), (z, mz)] {
                assert_eq!(sim.value(sig).to_u64(), Some(want), "a = {av:#x}");
            }
        }
    }

    /// IEEE 1364-2005 §9.5.1: a `z` bit of the `casez` expression is a
    /// don't-care, as one in a case item is, under both settle rules.
    #[test]
    fn casez_treats_z_in_the_case_expression_as_a_wildcard() {
        let d = compile(
            "module m(input wire [3:0] a, output reg [1:0] y);
               always @* casez (a)
                 4'b0011: y = 2'd1;
                 4'b1001: y = 2'd2;
                 default: y = 2'd3;
               endcase
             endmodule",
            None,
        )
        .unwrap();
        let (a, y) = (d.find_signal("a").unwrap(), d.find_signal("y").unwrap());
        let lit = |s: &str| LogicVec::parse_literal(s).unwrap();
        let mut ev = Simulator::new(&d);
        let mut lv = Simulator::levelized(Evaluator::tree(&d));
        for (value, want) in [
            ("4'b1001", 2),
            ("4'bz001", 2),
            ("4'bz011", 1),
            ("4'b0zz1", 1),
            ("4'bx001", 3),
            ("4'bz101", 3),
        ] {
            for sim in [&mut ev, &mut lv] {
                sim.replay_step(&[(a, lit(value))]);
                assert_eq!(sim.value(y).to_u64(), Some(want), "a = {value}");
            }
        }
    }

    #[test]
    fn async_reset_fires_on_negedge() {
        let d = compile(
            "module m(input wire clk, input wire rst_n, input wire [3:0] a, output reg [3:0] q);
               always @(posedge clk or negedge rst_n) begin
                 if (!rst_n) q <= 4'h0; else q <= a;
               end
             endmodule",
            None,
        )
        .unwrap();
        let clk = d.find_signal("clk").unwrap();
        let rst_n = d.find_signal("rst_n").unwrap();
        let a = d.find_signal("a").unwrap();
        let q = d.find_signal("q").unwrap();
        let mut sim = Simulator::new(&d);
        // Drop reset without any clock: q clears asynchronously.
        sim.set_input(rst_n, &v(1, 0));
        sim.step();
        assert_eq!(sim.value(q).to_u64(), Some(0));
        sim.set_input(rst_n, &v(1, 1));
        sim.set_input(a, &v(4, 7));
        sim.clock_cycle(clk);
        assert_eq!(sim.value(q).to_u64(), Some(7));
    }

    #[test]
    fn comb_always_reacts_to_inputs() {
        let d = compile(
            "module m(input wire [1:0] s, input wire [3:0] a, input wire [3:0] b,
                      output reg [3:0] y);
               always @(*) begin
                 case (s)
                   2'd0: y = a;
                   2'd1: y = b;
                   default: y = a ^ b;
                 endcase
               end
             endmodule",
            None,
        )
        .unwrap();
        let s = d.find_signal("s").unwrap();
        let a = d.find_signal("a").unwrap();
        let b = d.find_signal("b").unwrap();
        let y = d.find_signal("y").unwrap();
        let mut sim = Simulator::new(&d);
        sim.set_input(a, &v(4, 0x3));
        sim.set_input(b, &v(4, 0x5));
        sim.set_input(s, &v(2, 0));
        sim.step();
        assert_eq!(sim.value(y).to_u64(), Some(3));
        sim.set_input(s, &v(2, 1));
        sim.step();
        assert_eq!(sim.value(y).to_u64(), Some(5));
        sim.set_input(s, &v(2, 2));
        sim.step();
        assert_eq!(sim.value(y).to_u64(), Some(6));
    }

    #[test]
    fn pipeline_through_hierarchy() {
        let d = compile(
            "module stage(input wire clk, input wire [7:0] din, output reg [7:0] dout);
               always @(posedge clk) dout <= din + 8'h01;
             endmodule
             module top(input wire clk, input wire [7:0] din, output wire [7:0] dout);
               wire [7:0] mid;
               stage s0 (.clk(clk), .din(din), .dout(mid));
               stage s1 (.clk(clk), .din(mid), .dout(dout));
             endmodule",
            None,
        )
        .unwrap();
        let clk = d.find_signal("clk").unwrap();
        let din = d.find_signal("din").unwrap();
        let dout = d.find_signal("dout").unwrap();
        let mut sim = Simulator::new(&d);
        sim.set_input(din, &v(8, 10));
        sim.clock_cycle(clk);
        sim.clock_cycle(clk);
        assert_eq!(sim.value(dout).to_u64(), Some(12));
    }

    #[test]
    fn matches_event_driven_simulator() {
        // The levelized rule runs every RTL node once per delta, in
        // `comb_order`, and settles in as many deltas as the event-driven
        // one.
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      output reg [7:0] acc, output wire [7:0] mix, output reg [7:0] sel);
               wire [7:0] ext;
               assign ext = {a, a};
               assign mix = acc ^ ext;
               always @* if (a[0]) sel = mix; else sel = acc + 8'h01;
               always @(posedge clk) begin
                 if (rst) acc <= 8'h00;
                 else acc <= acc + sel;
               end
             endmodule",
            None,
        )
        .unwrap();
        let f = |n: &str| d.find_signal(n).unwrap();
        let (clk, rst, a) = (f("clk"), f("rst"), f("a"));
        let mut steps = vec![vec![(rst, v(1, 1))]];
        for i in 0..20u64 {
            steps.push(vec![(a, v(4, i * 3 % 16))]);
            if i == 1 {
                steps.push(vec![(rst, v(1, 0))]);
            }
            steps.push(vec![(clk, v(1, 0))]);
            steps.push(vec![(clk, v(1, 1))]);
        }
        let mut ev = Simulator::new(&d);
        let mut lv = Simulator::unsettled(Evaluator::tree(&d), ItemOrder::default());
        lv.net.levelize();
        lv.settle_all();
        for (si, step) in steps.iter().enumerate() {
            ev.replay_step(step);
            lv.replay_step(step);
            assert_eq!(lv.deltas(), ev.deltas(), "step {si}");
            for s in 0..d.num_signals() {
                let s = SignalId::from_index(s);
                assert_eq!(ev.value(s), lv.value(s), "step {si}");
            }
        }
        let rtl = |items: &[CombItem]| -> Vec<CombItem> {
            let rtl = items.iter().filter(|i| matches!(i, CombItem::Rtl(_)));
            rtl.copied().collect()
        };
        let order = rtl(d.comb_order());
        assert_eq!(order.len(), 2);
        for (k, (fired, deltas)) in lv.hook().steps.iter().enumerate() {
            assert_eq!(rtl(fired), order.repeat(*deltas as usize), "step {k}");
        }
    }

    #[test]
    fn levelized_rule_keeps_the_sensitivity_list() {
        // `b` is read but not on the list: a change of `b` alone does not
        // re-run the block under either rule, so `y` keeps the `X` that
        // `a & b` gave while `b` was unknown.
        let d = compile(
            "module m(input wire a, input wire b, output reg y);
               always @(a) y = a & b;
             endmodule",
            None,
        )
        .unwrap();
        let f = |n: &str| d.find_signal(n).unwrap();
        let (a, b, y) = (f("a"), f("b"), f("y"));
        let steps = [(a, 1), (b, 0), (b, 1), (a, 0), (a, 1)];
        let expect = [None, None, None, Some(0), Some(1)];
        let mut ev = Simulator::new(&d);
        let mut lv = Simulator::levelized(Evaluator::tree(&d));
        for ((sig, x), want) in steps.into_iter().zip(expect) {
            for sim in [&mut ev, &mut lv] {
                sim.replay_step(&[(sig, v(1, x))]);
                assert_eq!(sim.value(y).to_u64(), want, "after {sig:?} = {x}");
            }
            assert_eq!(lv.deltas(), ev.deltas());
        }
    }

    #[test]
    fn snapshot_roundtrip_matches_uninterrupted_run() {
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      output reg [7:0] acc, output wire [7:0] mix);
               wire [7:0] ext;
               assign ext = {a, a};
               assign mix = acc ^ ext;
               always @(posedge clk) begin
                 if (rst) acc <= 8'h00;
                 else acc <= acc + ext;
               end
             endmodule",
            None,
        )
        .unwrap();
        let f = |n: &str| d.find_signal(n).unwrap();
        let (clk, rst, a) = (f("clk"), f("rst"), f("a"));
        let mut sb = StimulusBuilder::with_capacity(20);
        for i in 0..20u64 {
            sb.add_cycle(clk, &[(rst, v(1, (i < 2) as u64)), (a, v(4, i * 11 % 16))]);
        }
        let steps = sb.finish().steps;
        let rules: [fn(&Design) -> Simulator<'_>; 2] = [
            |d| Simulator::new(d),
            |d| Simulator::levelized(Evaluator::tree(d)),
        ];
        for new_sim in rules {
            let mut full = new_sim(&d);
            let mut snap = SimSnapshot::new();
            let k = 13;
            for (si, step) in steps.iter().enumerate() {
                if si == k {
                    full.capture_into(&mut snap);
                }
                full.replay_step(step);
            }
            // Restore into a dirty instance and replay only the suffix.
            let mut resumed = new_sim(&d);
            resumed.replay_step(&steps[0]);
            resumed.restore_from(&snap);
            for step in steps.iter_from(k) {
                resumed.replay_step(step);
            }
            for i in 0..d.num_signals() {
                let s = SignalId::from_index(i);
                assert_eq!(full.value(s), resumed.value(s), "signal {i} diverged");
            }
        }
    }

    #[test]
    fn force_pins_bit() {
        let d = compile(
            "module m(input wire [3:0] a, output wire [3:0] y);
               wire [3:0] t;
               assign t = a;
               assign y = t;
             endmodule",
            None,
        )
        .unwrap();
        let a = d.find_signal("a").unwrap();
        let t = d.find_signal("t").unwrap();
        let y = d.find_signal("y").unwrap();
        for mut sim in [
            Simulator::new(&d),
            Simulator::levelized(Evaluator::tree(&d)),
        ] {
            sim.force_bit(t, 0, LogicBit::One);
            sim.replay_step(&[(a, v(4, 0))]);
            assert_eq!(sim.value(y).to_u64(), Some(1));
            sim.replay_step(&[(a, v(4, 0b1110))]);
            assert_eq!(sim.value(y).to_u64(), Some(0b1111));
        }
    }

    /// The source-equivalent expression of an RTL node, for
    /// [`eval_expr_cloning`](eraser_ir::eval_expr_cloning), which keeps its
    /// own copy of the operator semantics.
    fn rtl_to_expr(node: &eraser_ir::RtlNode) -> eraser_ir::Expr {
        use eraser_ir::{Expr, RtlOp};
        let sig = |k: usize| Expr::Signal(node.inputs[k]);
        match &node.op {
            RtlOp::Buf => sig(0),
            RtlOp::Const(c) => Expr::Const(c.clone()),
            RtlOp::Unary(u) => Expr::Unary(*u, Box::new(sig(0))),
            RtlOp::Binary(b) => Expr::Binary(*b, Box::new(sig(0)), Box::new(sig(1))),
            RtlOp::Mux => Expr::Ternary {
                cond: Box::new(sig(0)),
                then_e: Box::new(sig(1)),
                else_e: Box::new(sig(2)),
            },
            RtlOp::Concat => Expr::Concat(node.inputs.iter().map(|s| Expr::Signal(*s)).collect()),
            RtlOp::Replicate(n) => Expr::Replicate(*n, Box::new(sig(0))),
            RtlOp::Slice { hi, lo } => Expr::Slice {
                base: node.inputs[0],
                hi: *hi,
                lo: *lo,
            },
            RtlOp::Index => Expr::Index {
                base: node.inputs[0],
                index: Box::new(sig(1)),
            },
            RtlOp::IndexedPart { width } => Expr::IndexedPart {
                base: node.inputs[0],
                start: Box::new(sig(1)),
                width: *width,
            },
        }
    }

    #[test]
    fn rtl_nodes_match_the_expression_oracle_in_lockstep() {
        use eraser_ir::{eval_expr_cloning, RtlOp};
        // The continuous assigns hold at least one RTL node of every
        // `RtlOp` kind, their variable selects driven in range, out of
        // range and with an `X` index, and a concatenation of two different
        // signals. The behavioral body (a casez
        // decoder, dynamic bit writes, NBAs) keeps the register the assigns
        // read changing. After every settle step, every RTL node's
        // committed output is compared with the cloning oracle over the
        // node's source-equivalent expression, resized to the output.
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      input wire [2:0] i, input wire [3:0] j,
                      output reg [7:0] q, output wire [7:0] w);
               reg [7:0] acc;
               wire [7:0] copy; wire [3:0] k, inv, pick, mid;
               wire [15:0] rep; wire bit_j; wire [1:0] part_j; wire [7:0] cat;
               assign w = (acc << a[1:0]) ^ {a, a};
               assign cat = {inv, a};
               assign copy = acc;
               assign k = 4'ha;
               assign inv = ~a;
               assign pick = a[3] ? inv : k;
               assign rep = {4{a}};
               assign mid = acc[5:2];
               assign bit_j = acc[j];
               assign part_j = acc[j +: 2];
               always @(posedge clk) begin
                 if (rst) begin acc <= 8'h00; q <= 8'h00; end
                 else begin
                   casez (a)
                     4'b1???: acc <= acc + {4'h0, a};
                     4'b01??: acc <= acc ^ 8'h3c;
                     default: acc <= acc - 8'h01;
                   endcase
                   q[i] <= a[0];
                 end
               end
             endmodule",
            None,
        )
        .unwrap();
        let kinds: std::collections::BTreeSet<&str> = d
            .rtl_nodes()
            .iter()
            .map(|n| match n.op {
                RtlOp::Buf => "Buf",
                RtlOp::Const(_) => "Const",
                RtlOp::Unary(_) => "Unary",
                RtlOp::Binary(_) => "Binary",
                RtlOp::Mux => "Mux",
                RtlOp::Concat => "Concat",
                RtlOp::Replicate(_) => "Replicate",
                RtlOp::Slice { .. } => "Slice",
                RtlOp::Index => "Index",
                RtlOp::IndexedPart { .. } => "IndexedPart",
            })
            .collect();
        assert_eq!(kinds.len(), 10, "every RtlOp kind is exercised: {kinds:?}");
        let [clk, rst, a, i, j] = ["clk", "rst", "a", "i", "j"].map(|n| d.find_signal(n).unwrap());
        let mut sim = Simulator::new(&d);
        let mut drive = |sig, val: &LogicVec, at: &str| {
            sim.set_input(sig, val);
            sim.step();
            let values: Vec<LogicVec> = (0..d.num_signals())
                .map(|s| sim.value(SignalId::from_index(s)).clone())
                .collect();
            for node in d.rtl_nodes() {
                let want =
                    eval_expr_cloning(&rtl_to_expr(node), &values).resize(d.width(node.output));
                assert_eq!(values[node.output.index()], want, "{at}: {:?}", node.op);
            }
        };
        drive(rst, &v(1, 1), "reset");
        for cycle in 0..24u64 {
            let at = format!("cycle {cycle}");
            drive(a, &v(4, cycle * 7 % 16), &at);
            drive(i, &v(3, cycle * 3 % 8), &at);
            // `j` sweeps 0..=15, past `acc`'s 8 bits, and is all-`X` or
            // partly `X` every fifth cycle.
            let jv = match cycle % 5 {
                3 => LogicVec::new_x(4),
                4 => LogicVec::parse_literal("4'b0x10").unwrap(),
                _ => v(4, cycle * 5 % 16),
            };
            drive(j, &jv, &at);
            if cycle == 1 {
                drive(rst, &v(1, 0), &at);
            }
            drive(clk, &v(1, 0), &at);
            drive(clk, &v(1, 1), &at);
        }
    }
}
