//! The good (fault-free) simulator, with its two settle rules.

use crate::evaluator::Evaluator;
use crate::interp::{ExecCtx, ExecOutcome, NoopMonitor, SlotWrite};
use crate::probe::{ProbeMonitor, SiteProbe};
use crate::snapshot::{assign_logic_slice, SimSnapshot};
use crate::stimulus::Stimulus;
use crate::store::ValueStore;
use eraser_ir::{
    BehavioralId, CombItem, Design, EvalBackend, RtlNodeId, Sensitivity, SignalId, TapeProgram,
};
use eraser_logic::{LogicBit, LogicVec};

/// Bound on delta cycles per step (oscillation guard; combinational cycles
/// are already rejected at design build time).
const DELTA_LIMIT: usize = 10_000;

/// A four-state RTL simulator for the fault-free design.
///
/// The evaluation discipline per delta cycle is:
///
/// 1. **Active region** — the combinational network settles under one of
///    two rules, picked at construction:
///    - *event-driven* ([`Simulator::with_evaluator`] and the constructors
///      built on it): dirty RTL nodes and level-sensitive behavioral nodes
///      are evaluated to a fixpoint, propagating value changes through
///      their fanout — work proportional to activity (the IFsim substrate);
///    - *levelized* ([`Simulator::levelized`]): every combinational item is
///      evaluated in the design's topological order, Verilator-fashion,
///      one sweep per delta until a sweep changes nothing — constant
///      whole-design work per delta (the VFsim substrate).
/// 2. **Deferred edge detection** — only after the active region settles are
///    event (edge) expressions evaluated against the previously-latched
///    values. This ordering is what the ERASER paper generalizes to the
///    concurrent engine to avoid *fake events* (a bad gate prematurely
///    seeing a good value as an edge).
/// 3. Activated sequential nodes execute; their non-blocking assignments
///    are queued.
/// 4. **NBA region** — queued non-blocking writes commit in order, possibly
///    scheduling another delta.
///
/// Both rules commit the same settled values after every step; only the
/// delta count and the work done differ. Forces, edge detection, the NBA
/// region, the probe feed and snapshots are shared.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Simulator<'d> {
    design: &'d Design,
    /// The backend every node of the design is evaluated on.
    eval: Evaluator<'d>,
    /// The settle rule: sweep `comb_order` (`true`) or drain the dirty
    /// queues (`false`).
    levelized: bool,
    values: ValueStore,
    /// Values as of the last edge-detection point, for all signals watched
    /// by edge-triggered nodes.
    edge_prev: Vec<LogicVec>,
    rtl_dirty: Vec<bool>,
    rtl_queue: Vec<RtlNodeId>,
    beh_dirty: Vec<bool>,
    beh_queue: Vec<BehavioralId>,
    watch_changed: Vec<SignalId>,
    watch_flag: Vec<bool>,
    nba: Vec<SlotWrite>,
    /// Permanently forced bits (`force` command semantics): re-applied on
    /// every write to the signal.
    forces: Vec<(SignalId, u32, LogicBit)>,
    /// Total delta cycles executed (exposed for instrumentation).
    deltas: u64,
    /// Activation probe for instrumented good replays (`None` = the
    /// zero-overhead default).
    probe: Option<Box<SiteProbe>>,

    // Reusable workspace — all steady-state stepping works out of these
    // buffers, so `step()` performs zero heap allocations once warm.
    /// Expression-evaluation scratch arena.
    ctx: ExecCtx,
    /// Behavioral-execution outcome, cleared and refilled per activation.
    ///
    /// All value temporaries — RTL node outputs, force application, NBA
    /// write folding, input resizes — come from `ctx.scratch` at the
    /// target's storage class (`take_for`), so buffers for >64-bit signals
    /// keep cycling among wide uses instead of being reshaped against
    /// narrow ones.
    outcome: ExecOutcome,
    /// Swap buffer for draining `watch_changed` without losing capacity.
    ws_changed: Vec<SignalId>,
    /// Edge-activated nodes of the current delta.
    ws_activated: Vec<BehavioralId>,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator with all signals at `X` and performs the initial
    /// evaluation (constants and combinational logic settle), on the
    /// tree walker; use [`Simulator::with_backend`] for the tape backend.
    pub fn new(design: &'d Design) -> Self {
        Self::with_evaluator(Evaluator::tree(design))
    }

    /// Creates a simulator pinned to `backend` (compiling a private tape
    /// program for [`EvalBackend::Tape`]).
    pub fn with_backend(design: &'d Design, backend: EvalBackend) -> Self {
        Self::with_evaluator(Evaluator::for_backend(design, backend))
    }

    /// Creates a simulator on the tape backend executing a shared,
    /// pre-compiled program — what per-fault re-simulation baselines use to
    /// compile once per campaign instead of once per fault.
    pub fn with_tapes(design: &'d Design, tapes: &'d TapeProgram) -> Self {
        Self::with_evaluator(Evaluator::shared(design, Some(tapes)))
    }

    /// Creates an event-driven simulator over `eval`'s design and backend —
    /// the form the other event-driven constructors reduce to.
    pub fn with_evaluator(eval: Evaluator<'d>) -> Self {
        Self::build(eval, false)
    }

    /// Creates a simulator over `eval`'s design and backend that settles
    /// under the levelized rule: every combinational item, every delta, in
    /// topological order.
    pub fn levelized(eval: Evaluator<'d>) -> Self {
        Self::build(eval, true)
    }

    fn build(eval: Evaluator<'d>, levelized: bool) -> Self {
        let design = eval.design();
        let values = ValueStore::new(design);
        let edge_prev = design
            .signals()
            .iter()
            .map(|s| LogicVec::new_x(s.width))
            .collect();
        let mut sim = Simulator {
            design,
            eval,
            levelized,
            values,
            edge_prev,
            rtl_dirty: vec![false; design.rtl_nodes().len()],
            rtl_queue: Vec::new(),
            beh_dirty: vec![false; design.behavioral_nodes().len()],
            beh_queue: Vec::new(),
            watch_changed: Vec::new(),
            watch_flag: vec![false; design.num_signals()],
            nba: Vec::new(),
            forces: Vec::new(),
            deltas: 0,
            probe: None,
            ctx: ExecCtx::new(),
            outcome: ExecOutcome::default(),
            ws_changed: Vec::new(),
            ws_activated: Vec::new(),
        };
        for i in 0..design.rtl_nodes().len() {
            sim.mark_rtl(RtlNodeId::from_index(i));
        }
        for (i, b) in design.behavioral_nodes().iter().enumerate() {
            if !b.sensitivity.is_edge() {
                sim.mark_beh(BehavioralId::from_index(i));
            }
        }
        sim.step();
        sim
    }

    /// The design being simulated.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The current value of a signal.
    pub fn value(&self, sig: SignalId) -> &LogicVec {
        self.values.get(sig)
    }

    /// The full value store.
    pub fn values(&self) -> &ValueStore {
        &self.values
    }

    /// Total delta cycles executed so far.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Drives a primary input (or, for testing, forces any signal) to
    /// `value`, by borrow — a width-matching value is committed straight
    /// from the caller's storage (no resize, no clone), an unchanged value
    /// skips the commit entirely, and a mismatched width resizes through a
    /// pooled temporary. Fanout is scheduled if the value changed; call
    /// [`Simulator::step`] to propagate.
    pub fn set_input(&mut self, sig: SignalId, value: &LogicVec) {
        let width = self.design.signal(sig).width;
        if value.width() == width {
            if self.forces.is_empty() && self.values.get(sig) == value {
                return;
            }
            self.commit_borrowed(sig, value);
            return;
        }
        let mut resized = self.ctx.scratch.take_for(width);
        resized.copy_resized(value, width);
        if !(self.forces.is_empty() && self.values.get(sig) == &resized) {
            self.commit_borrowed(sig, &resized);
        }
        self.ctx.scratch.put(resized);
    }

    /// Permanently forces one bit of a signal — the `force` command used by
    /// force-based fault injection (the paper's IFsim baseline). The force
    /// is applied immediately and re-applied on every subsequent write.
    pub fn add_force(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.forces.push((sig, bit, value));
        let current = self.values.get(sig).clone();
        self.commit_value(sig, current);
    }

    /// [`Simulator::add_force`], then settles: the stuck-at injection of
    /// the serial baselines, which settles the force before the next
    /// stimulus step so every engine agrees on when a forced power-on edge
    /// (`X` -> stuck value) fires.
    pub fn force_bit(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.add_force(sig, bit, value);
        self.step();
    }

    /// Applies forces (if any) and commits an owned value, scheduling
    /// fanout on change.
    fn commit_value(&mut self, sig: SignalId, value: LogicVec) -> bool {
        self.commit_borrowed(sig, &value)
    }

    /// Applies forces (if any) and commits a borrowed value in place,
    /// scheduling fanout on change. The store slot's storage is reused, so
    /// steady-state commits never allocate.
    fn commit_borrowed(&mut self, sig: SignalId, value: &LogicVec) -> bool {
        let changed = if self.forces.is_empty() {
            self.values.commit(sig, value)
        } else {
            let mut forced = self.ctx.scratch.take_for(value.width());
            forced.assign_from(value);
            for &(fs, bit, b) in &self.forces {
                if fs == sig && bit < forced.width() {
                    forced.set_bit(bit, b);
                }
            }
            let changed = self.values.commit(sig, &forced);
            self.ctx.scratch.put(forced);
            changed
        };
        if changed {
            if let Some(p) = &mut self.probe {
                p.observe_commit(sig, self.values.get(sig));
            }
            self.schedule_fanout(sig);
        }
        changed
    }

    /// Runs delta cycles until the design is stable.
    ///
    /// # Panics
    ///
    /// Panics if the design fails to settle within an internal delta bound
    /// (an oscillation, which cannot arise from designs accepted by the
    /// frontend).
    pub fn step(&mut self) {
        for _ in 0..DELTA_LIMIT {
            self.deltas += 1;
            if self.levelized {
                // Sweep again until a sweep changes nothing; only then
                // are edges looked at.
                if self.sweep_comb() {
                    continue;
                }
                self.clear_queues();
            } else {
                self.settle_active();
            }
            let n_activated = self.detect_edges();
            for i in 0..n_activated {
                let b = self.ws_activated[i];
                self.run_behavioral(b);
            }
            let committed = self.commit_nba();
            if !committed
                && n_activated == 0
                && self.rtl_queue.is_empty()
                && self.beh_queue.is_empty()
            {
                return;
            }
        }
        panic!("design did not settle within {DELTA_LIMIT} delta cycles");
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

    /// Attaches an activation probe; the probe immediately observes the
    /// current state (its step-0 baseline), then every subsequent commit,
    /// decision and edge hazard until taken back.
    pub fn attach_probe(&mut self, mut probe: SiteProbe) {
        probe.observe_initial(self.design, &self.values);
        self.probe = Some(Box::new(probe));
    }

    /// Detaches and returns the probe, if one is attached.
    pub fn take_probe(&mut self) -> Option<SiteProbe> {
        self.probe.take().map(|p| *p)
    }

    /// Tells the attached probe (if any) which stimulus step subsequent
    /// observations belong to.
    pub fn begin_probe_step(&mut self, step: usize) {
        if let Some(p) = &mut self.probe {
            p.begin_step(step);
        }
    }

    /// True if every signal's current value is fully defined (no `X`/`Z`
    /// anywhere) — the eligibility condition for restarting
    /// refinement-dormant faults from this state.
    pub fn fully_defined(&self) -> bool {
        self.values.fully_defined()
    }

    /// True if no queued work is pending — the settle-point condition under
    /// which snapshots are defined.
    fn is_settled(&self) -> bool {
        self.rtl_queue.is_empty()
            && self.beh_queue.is_empty()
            && self.nba.is_empty()
            && self.watch_changed.is_empty()
    }

    /// Captures the full settle-point state into `snap`, reusing its
    /// buffers (see [`SimSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if called between [`Simulator::set_input`] and
    /// [`Simulator::step`] — snapshots are defined at settle points only.
    pub fn capture_into(&self, snap: &mut SimSnapshot) {
        assert!(self.is_settled(), "capture requires a settled simulator");
        assign_logic_slice(&mut snap.values, self.values.as_slice());
        assign_logic_slice(&mut snap.edge_prev, &self.edge_prev);
        snap.forces.clear();
        snap.forces.extend_from_slice(&self.forces);
        snap.deltas = self.deltas;
    }

    /// Restores a captured settle-point state, discarding all current state
    /// and pending work. The snapshot must come from a simulator over the
    /// same design.
    pub fn restore_from(&mut self, snap: &SimSnapshot) {
        self.values.restore_from_slice(&snap.values);
        assert_eq!(
            self.edge_prev.len(),
            snap.edge_prev.len(),
            "snapshot covers a different design"
        );
        for (slot, v) in self.edge_prev.iter_mut().zip(&snap.edge_prev) {
            slot.assign_from(v);
        }
        self.forces.clear();
        self.forces.extend_from_slice(&snap.forces);
        self.deltas = snap.deltas;
        // Re-establish the quiescent scheduling state the snapshot was
        // taken in.
        self.rtl_dirty.fill(false);
        self.rtl_queue.clear();
        self.beh_dirty.fill(false);
        self.beh_queue.clear();
        self.watch_flag.fill(false);
        self.watch_changed.clear();
        self.nba.clear();
    }

    // ---- internals ----

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

    /// Schedules everything that reads `sig` after its value changed.
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

    /// Evaluates dirty RTL nodes and level-sensitive behavioral nodes to a
    /// fixpoint.
    fn settle_active(&mut self) {
        loop {
            if let Some(id) = self.rtl_queue.pop() {
                self.rtl_dirty[id.index()] = false;
                self.run_rtl(id);
                continue;
            }
            if let Some(id) = self.beh_queue.pop() {
                self.beh_dirty[id.index()] = false;
                self.run_behavioral(id);
                continue;
            }
            break;
        }
    }

    /// One levelized sweep: every combinational item in topological order.
    /// Returns whether any value changed.
    fn sweep_comb(&mut self) -> bool {
        let mut changed = false;
        for item in self.design.comb_order() {
            changed |= match *item {
                CombItem::Rtl(id) => self.run_rtl(id),
                CombItem::Beh(id) => self.run_behavioral(id),
            };
        }
        changed
    }

    /// Drops the fanout the levelized sweeps scheduled: the next sweep
    /// visits every item anyway.
    fn clear_queues(&mut self) {
        for id in self.rtl_queue.drain(..) {
            self.rtl_dirty[id.index()] = false;
        }
        for id in self.beh_queue.drain(..) {
            self.beh_dirty[id.index()] = false;
        }
    }

    /// Evaluates one RTL node and commits its output; returns whether the
    /// output changed.
    fn run_rtl(&mut self, id: RtlNodeId) -> bool {
        let output = self.design.rtl_node(id).output;
        let mut out = self.ctx.scratch.take_for(self.design.signal(output).width);
        self.eval.rtl(id, &self.values, &mut self.ctx, &mut out);
        let changed = self.commit_borrowed(output, &out);
        self.ctx.scratch.put(out);
        changed
    }

    /// Executes one behavioral node: blocking results commit immediately,
    /// non-blocking writes are queued for the NBA region. Works entirely
    /// out of the reusable execution workspace. Returns whether a blocking
    /// commit changed a value.
    fn run_behavioral(&mut self, id: BehavioralId) -> bool {
        let design = self.design;
        let node = design.behavioral(id);
        let mut outcome = std::mem::take(&mut self.outcome);
        match self.probe.take() {
            Some(mut p) => {
                let mut mon = ProbeMonitor::new(&mut p, &node.vdg);
                self.eval
                    .behavioral(id, &self.values, &mut mon, &mut self.ctx, &mut outcome);
                self.probe = Some(p);
            }
            None => self.eval.behavioral(
                id,
                &self.values,
                &mut NoopMonitor,
                &mut self.ctx,
                &mut outcome,
            ),
        }
        let mut changed = false;
        for (sig, val) in &outcome.blocking {
            changed |= self.commit_borrowed(*sig, val);
        }
        self.nba.append(&mut outcome.nba);
        self.outcome = outcome;
        changed
    }

    /// Deferred edge detection: compares watched signals against their
    /// last-latched values and collects the activated sequential nodes into
    /// `ws_activated`, returning their count.
    fn detect_edges(&mut self) -> usize {
        self.ws_activated.clear();
        std::mem::swap(&mut self.watch_changed, &mut self.ws_changed);
        let design = self.design;
        for i in 0..self.ws_changed.len() {
            let sig = self.ws_changed[i];
            self.watch_flag[sig.index()] = false;
            let prev = &self.edge_prev[sig.index()];
            let cur = self.values.get(sig);
            if prev == cur {
                continue;
            }
            // Event expressions on vectors use bit 0, per common simulator
            // behavior.
            let (prev0, cur0) = (prev.bit_or_x(0), cur.bit_or_x(0));
            for &b in design.edge_fanout(sig) {
                if self.ws_activated.contains(&b) {
                    continue;
                }
                let node = design.behavioral(b);
                if let Sensitivity::Edges(edges) = &node.sensitivity {
                    let fired = edges
                        .iter()
                        .any(|(kind, s)| *s == sig && kind.matches(prev0, cur0));
                    if fired {
                        self.ws_activated.push(b);
                    }
                }
            }
            self.edge_prev[sig.index()].assign_from(self.values.get(sig));
        }
        self.ws_changed.clear();
        self.ws_activated.len()
    }

    /// Commits queued non-blocking writes in order; returns whether any
    /// signal changed.
    fn commit_nba(&mut self) -> bool {
        if self.nba.is_empty() {
            return false;
        }
        let mut writes = std::mem::take(&mut self.nba);
        let mut any = false;
        for w in writes.drain(..) {
            // Per-target temporary at the target's storage class, and the
            // write's own value buffer recycled afterwards: on wide designs
            // these are the boxed buffers, and dropping them here (or
            // letting one shared temporary shrink to the next narrow
            // target) would force a fresh allocation every time a >64-bit
            // signal commits.
            let width = self.design.signal(w.target).width;
            let mut next = self.ctx.scratch.take_for(width);
            next.assign_from(self.values.get(w.target));
            w.apply_assign(&mut next);
            if self.commit_borrowed(w.target, &next) {
                any = true;
            }
            self.ctx.scratch.put(next);
            self.ctx.scratch.put(w.value);
        }
        self.nba = writes;
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_frontend::compile;

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
        let (clk, rst, a, acc, mix) = (f("clk"), f("rst"), f("a"), f("acc"), f("mix"));
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
        let mut lv = Simulator::levelized(Evaluator::tree(&d));
        for (si, step) in steps.iter().enumerate() {
            ev.replay_step(step);
            lv.replay_step(step);
            for s in [acc, mix] {
                assert_eq!(ev.value(s), lv.value(s), "step {si}");
            }
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
        let steps: Vec<Vec<(SignalId, LogicVec)>> = (0..20u64)
            .flat_map(|i| {
                [
                    vec![
                        (clk, v(1, 0)),
                        (rst, v(1, (i < 2) as u64)),
                        (a, v(4, i * 11 % 16)),
                    ],
                    vec![(clk, v(1, 1))],
                ]
            })
            .collect();
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
            for step in &steps[k..] {
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

    #[test]
    fn tape_backend_matches_tree_backend_in_lockstep() {
        use eraser_ir::EvalBackend;
        // RTL nodes, a casez decoder, dynamic bit writes and NBAs — every
        // evaluation path the tape backend serves, compared signal-for-
        // signal against the tree walker after every settle step.
        let d = compile(
            "module m(input wire clk, input wire rst, input wire [3:0] a,
                      input wire [2:0] i, output reg [7:0] q, output wire [7:0] w);
               reg [7:0] acc;
               assign w = (acc << a[1:0]) ^ {a, a};
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
        let sigs: Vec<_> = ["clk", "rst", "a", "i", "q", "w", "acc"]
            .iter()
            .map(|n| d.find_signal(n).unwrap())
            .collect();
        let (clk, rst, a, i) = (sigs[0], sigs[1], sigs[2], sigs[3]);
        let mut tree = Simulator::with_backend(&d, EvalBackend::Tree);
        let mut tape = Simulator::with_backend(&d, EvalBackend::Tape);
        let drive = |tree: &mut Simulator, tape: &mut Simulator, sig, val: &LogicVec| {
            tree.set_input(sig, val);
            tree.step();
            tape.set_input(sig, val);
            tape.step();
        };
        drive(&mut tree, &mut tape, rst, &v(1, 1));
        for cycle in 0..24u64 {
            drive(&mut tree, &mut tape, a, &v(4, cycle * 7 % 16));
            drive(&mut tree, &mut tape, i, &v(3, cycle * 3 % 8));
            if cycle == 1 {
                drive(&mut tree, &mut tape, rst, &v(1, 0));
            }
            drive(&mut tree, &mut tape, clk, &v(1, 0));
            drive(&mut tree, &mut tape, clk, &v(1, 1));
            for &s in &sigs {
                assert_eq!(tree.value(s), tape.value(s), "cycle {cycle}");
            }
        }
    }
}
