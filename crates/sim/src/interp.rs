//! The behavioral interpreter.
//!
//! Executes one activation of a behavioral node against an arbitrary
//! [`ValueSource`] — the good simulator passes its value store, the ERASER
//! engine passes a *fault view* (diff entries overlaid on good values).
//!
//! Every expression of a body — right-hand sides, dynamic lvalue indices,
//! branch decisions — runs on the tree walker, word path first. Branch
//! outcomes are computed through the VDG's
//! [`DecisionEval`](eraser_ir::DecisionEval) payloads — the same `Evaluate`
//! functions the implicit-redundancy check replays under fault values, so
//! execution and redundancy detection can never disagree.
//!
//! An [`ExecMonitor`] observes the execution path as it unfolds: every path
//! decision (with its outcome) and every dependency segment, together with
//! the current blocking-write overlay. The ERASER engine's Algorithm 1
//! implementation is such a monitor: it checks, per candidate fault and *at
//! the good execution's own pace*, whether the fault's values would flip a
//! decision or feed a visible difference into an executed segment. Running
//! the check inside the execution (rather than on a recorded trace) is what
//! makes it sound in the presence of blocking-assigned locals, e.g. loop
//! variables: at any point where a candidate fault is still
//! possibly-redundant, its locals provably equal the good execution's
//! locals, so the monitor can evaluate decisions with "overlay for locals,
//! fault view for committed state".

use eraser_ir::{
    eval_expr_into, BehavioralNode, DecisionId, Design, EvalScratch, LValue, SegmentId, SignalId,
    Stmt, ValueSource, Vdg,
};
use eraser_logic::LogicVec;

/// Iteration bound for `for` loops (defense against malformed designs).
const MAX_LOOP_ITERATIONS: u32 = 1 << 16;

/// One resolved write produced by an execution.
///
/// Dynamic indices are resolved at execution time, so a write is always a
/// concrete (possibly partial) bit range of a target signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotWrite {
    /// Target signal.
    pub target: SignalId,
    /// `Some((lo, width))` for a partial write, `None` for the full signal.
    pub range: Option<(u32, u32)>,
    /// The written value (already sized to the range/signal width).
    pub value: LogicVec,
}

impl SlotWrite {
    /// Applies this write on top of `current`, returning the new value of
    /// the target signal.
    pub fn apply(&self, current: &LogicVec) -> LogicVec {
        let mut out = current.clone();
        self.apply_assign(&mut out);
        out
    }

    /// Applies this write onto `current` in place — the allocation-free
    /// form of [`SlotWrite::apply`].
    pub fn apply_assign(&self, current: &mut LogicVec) {
        match self.range {
            None => {
                let w = current.width();
                current.copy_resized(&self.value, w);
            }
            Some((lo, _w)) => current.assign_slice(lo, &self.value),
        }
    }

    /// Orders `writes` by target, stably: the writes to one target keep
    /// their execution order, the order a commit folds them in. A binary
    /// insertion sort — allocation-free, and one comparison per write on
    /// writes already in target order, as a register bank's are.
    pub fn sort_by_target(writes: &mut [SlotWrite]) {
        for i in 1..writes.len() {
            let t = writes[i].target;
            if writes[i - 1].target > t {
                let pos = writes[..i].partition_point(|w| w.target <= t);
                writes[pos..=i].rotate_right(1);
            }
        }
    }

    /// Splits the run of writes to `t` off the front of `rest`, a cursor
    /// into writes ordered by [`SlotWrite::sort_by_target`] that is read
    /// at every target they write, in ascending order, so no write left
    /// lies below `t`. `rest` keeps the writes after the run: one pass over
    /// a block's targets folds its writes in linear time.
    pub fn split_run<'a>(rest: &mut &'a [SlotWrite], t: SignalId) -> &'a [SlotWrite] {
        debug_assert!(
            rest.first().is_none_or(|w| w.target >= t),
            "a write to a target the cursor passed"
        );
        let len = rest.iter().take_while(|w| w.target == t).count();
        let (run, tail) = rest.split_at(len);
        *rest = tail;
        run
    }
}

/// Observer of an unfolding execution path.
///
/// `overlay` is the current blocking-write overlay (first-write order, last
/// entry wins): the execution's local state at this point in the path.
pub trait ExecMonitor {
    /// Called after each path decision is evaluated.
    fn on_decision(&mut self, id: DecisionId, outcome: u32, overlay: &[(SignalId, LogicVec)]);
    /// Called before each dependency segment (assignment) executes.
    fn on_segment(&mut self, id: SegmentId, overlay: &[(SignalId, LogicVec)]);
}

/// A monitor that ignores everything.
pub struct NoopMonitor;

impl ExecMonitor for NoopMonitor {
    fn on_decision(&mut self, _: DecisionId, _: u32, _: &[(SignalId, LogicVec)]) {}
    fn on_segment(&mut self, _: SegmentId, _: &[(SignalId, LogicVec)]) {}
}

/// The result of executing one behavioral activation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutcome {
    /// Non-blocking writes in execution order (committed in the NBA
    /// region).
    pub nba: Vec<SlotWrite>,
    /// Blocking writes in execution order (resolved ranges), for replaying
    /// onto a fault's state.
    pub blocking_writes: Vec<SlotWrite>,
    /// Final values of blocking-written signals, in first-write order.
    pub blocking: Vec<(SignalId, LogicVec)>,
}

/// Reusable execution context: the scratch arenas node evaluations draw
/// temporaries from. Hold one per engine (or per worker thread) and pass it
/// to [`execute_into`] so steady-state activations never touch the
/// allocator.
#[derive(Debug, Clone, Default)]
pub struct ExecCtx {
    /// Expression-evaluation scratch arena (the tree walker).
    pub scratch: EvalScratch,
    /// Dense per-signal index into the blocking-write overlay
    /// (`u32::MAX` = not overlaid), sized to the design on first use and
    /// cleared after every execution — signal reads during a body resolve
    /// locals in O(1) instead of scanning the overlay list.
    overlay_map: Vec<u32>,
}

impl ExecCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExecOutcome {
    /// Clears all three write lists, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.nba.clear();
        self.blocking_writes.clear();
        self.blocking.clear();
    }

    /// Empties all three write lists into `scratch`, keeping their
    /// capacity: on wide designs the values carry the boxed >64-bit
    /// storage, and dropping them with [`ExecOutcome::clear`] would force
    /// the next activation to reallocate.
    pub fn recycle(&mut self, scratch: &mut EvalScratch) {
        for (_, v) in self.blocking.drain(..) {
            scratch.put(v);
        }
        for w in self.blocking_writes.drain(..).chain(self.nba.drain(..)) {
            scratch.put(w.value);
        }
    }
}

/// Executes one activation of `node`, reading signal values from `base` by
/// borrow, reporting the execution path to `monitor`, drawing temporaries
/// from `ctx` and writing the results into `out` (cleared first, capacity
/// kept).
///
/// Blocking writes become visible to subsequent reads within this execution
/// (via the overlay in `out.blocking`) and are reported both as ordered
/// [`SlotWrite`]s and as final per-signal values; non-blocking writes are
/// collected in order for the NBA region.
///
/// # Panics
///
/// Panics if a `for` loop exceeds an internal iteration bound — a malformed
/// design rather than a recoverable condition.
pub fn execute_into<S: ValueSource + ?Sized, M: ExecMonitor + ?Sized>(
    design: &Design,
    node: &BehavioralNode,
    base: &S,
    monitor: &mut M,
    ctx: &mut ExecCtx,
    out: &mut ExecOutcome,
) {
    out.recycle(&mut ctx.scratch);
    if ctx.overlay_map.len() < design.num_signals() {
        ctx.overlay_map.resize(design.num_signals(), u32::MAX);
    }
    let mut interp = Interp {
        design,
        vdg: &node.vdg,
        base,
        overlay: &mut out.blocking,
        overlay_map: &mut ctx.overlay_map,
        nba: &mut out.nba,
        blocking_writes: &mut out.blocking_writes,
        scratch: &mut ctx.scratch,
        monitor,
        node_name: &node.name,
    };
    interp.exec_stmt(&node.body);
    // Reset the dense index for the next activation (only the overlaid
    // signals were touched).
    for (sig, _) in &out.blocking {
        ctx.overlay_map[sig.index()] = u32::MAX;
    }
}

struct Interp<'a, S: ?Sized, M: ?Sized> {
    design: &'a Design,
    vdg: &'a Vdg,
    base: &'a S,
    /// Blocking-write overlay, first-write order. Doubles as the
    /// outcome's final-values list.
    overlay: &'a mut Vec<(SignalId, LogicVec)>,
    /// Dense per-signal index into `overlay` (`u32::MAX` = absent).
    overlay_map: &'a mut Vec<u32>,
    nba: &'a mut Vec<SlotWrite>,
    blocking_writes: &'a mut Vec<SlotWrite>,
    scratch: &'a mut EvalScratch,
    monitor: &'a mut M,
    node_name: &'a str,
}

/// A view that resolves blocking-written locals from an overlay and
/// everything else from a base source. Public so redundancy monitors can
/// build the same view over a fault's committed state.
pub struct OverlayView<'a, S: ?Sized> {
    /// Blocking-write overlay (last entry for a signal wins).
    pub overlay: &'a [(SignalId, LogicVec)],
    /// Base source for signals absent from the overlay.
    pub base: &'a S,
}

impl<S: ValueSource + ?Sized> ValueSource for OverlayView<'_, S> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        for (s, v) in self.overlay.iter().rev() {
            if *s == sig {
                return v;
            }
        }
        self.base.value(sig)
    }
}

/// The interpreter's internal overlay view: resolves blocking-written
/// locals through a dense per-signal index in O(1) (the overlay holds at
/// most one entry per signal, kept current in place), everything else from
/// the base source. Equivalent to [`OverlayView`], which remains the
/// allocation-free general form for monitors that overlay arbitrary
/// slices.
struct MappedOverlay<'a, S: ?Sized> {
    overlay: &'a [(SignalId, LogicVec)],
    map: &'a [u32],
    base: &'a S,
}

impl<S: ValueSource + ?Sized> ValueSource for MappedOverlay<'_, S> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        match self.map[sig.index()] {
            u32::MAX => self.base.value(sig),
            i => &self.overlay[i as usize].1,
        }
    }
}

impl<'a, S: ValueSource + ?Sized, M: ExecMonitor + ?Sized> Interp<'a, S, M> {
    /// Evaluates `e` under the overlay view into `out`, drawing temporaries
    /// from the context's scratch arena.
    fn eval_into(&mut self, e: &eraser_ir::Expr, out: &mut LogicVec) {
        let view = MappedOverlay {
            overlay: self.overlay,
            map: self.overlay_map,
            base: self.base,
        };
        eval_expr_into(e, &view, self.scratch, out);
    }

    fn decide(&mut self, id: DecisionId) -> u32 {
        let view = MappedOverlay {
            overlay: self.overlay,
            map: self.overlay_map,
            base: self.base,
        };
        self.vdg.decisions[id.index()]
            .eval
            .evaluate_with(&view, self.scratch)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s);
                }
            }
            Stmt::Nop => {}
            Stmt::Assign {
                lhs,
                rhs,
                blocking,
                segment,
            } => {
                self.monitor.on_segment(*segment, self.overlay);
                // Draw the value buffer at the written width's storage
                // class: the right-hand side almost always evaluates at
                // the target width, so on wide designs (>64-bit signals)
                // this keeps the boxed scratch buffers from reshaping
                // against narrow temporaries cycle after cycle.
                let value_width = match lhs {
                    LValue::Full(sig) => self.design.width(*sig),
                    LValue::PartSelect { hi, lo, .. } => hi - lo + 1,
                    LValue::BitSelect { .. } => 1,
                    LValue::IndexedPart { width, .. } => *width,
                };
                let mut value = self.scratch.take_for(value_width);
                self.eval_into(rhs, &mut value);
                let write = match self.resolve_write(lhs, value) {
                    Ok(write) => write,
                    // Unknown/out-of-range dynamic index: no write; the
                    // value buffer goes back to the pool.
                    Err(value) => {
                        self.scratch.put(value);
                        return;
                    }
                };
                if *blocking {
                    self.blocking_writes.push(write);
                    self.apply_last_blocking();
                } else {
                    self.nba.push(write);
                }
            }
            Stmt::If {
                then_s,
                else_s,
                decision,
                ..
            } => {
                let outcome = self.decide(*decision);
                self.monitor.on_decision(*decision, outcome, self.overlay);
                if outcome == 1 {
                    self.exec_stmt(then_s);
                } else if let Some(e) = else_s {
                    self.exec_stmt(e);
                }
            }
            Stmt::Case {
                arms,
                default,
                decision,
                ..
            } => {
                let outcome = self.decide(*decision);
                self.monitor.on_decision(*decision, outcome, self.overlay);
                if (outcome as usize) < arms.len() {
                    self.exec_stmt(&arms[outcome as usize].body);
                } else if let Some(d) = default {
                    self.exec_stmt(d);
                }
            }
            Stmt::For {
                init,
                step,
                body,
                decision,
                ..
            } => {
                self.exec_stmt(init);
                let mut iterations = 0u32;
                loop {
                    let outcome = self.decide(*decision);
                    self.monitor.on_decision(*decision, outcome, self.overlay);
                    if outcome != 1 {
                        break;
                    }
                    self.exec_stmt(body);
                    self.exec_stmt(step);
                    iterations += 1;
                    assert!(
                        iterations < MAX_LOOP_ITERATIONS,
                        "for loop in `{}` exceeded {MAX_LOOP_ITERATIONS} iterations",
                        self.node_name
                    );
                }
            }
        }
    }

    /// Resolves an lvalue into a concrete [`SlotWrite`], sizing `value` to
    /// the written range (a no-op when the width already matches). Returns
    /// the untouched value buffer as `Err` for unknown or out-of-range dynamic
    /// indices (no bits are written, per simulator convention), so the
    /// caller can recycle it.
    fn resolve_write(&mut self, lhs: &LValue, value: LogicVec) -> Result<SlotWrite, LogicVec> {
        match lhs {
            LValue::Full(sig) => Ok(SlotWrite {
                target: *sig,
                range: None,
                value: value.into_width(self.design.width(*sig)),
            }),
            LValue::PartSelect { base, hi, lo } => Ok(SlotWrite {
                target: *base,
                range: Some((*lo, hi - lo + 1)),
                value: value.into_width(hi - lo + 1),
            }),
            LValue::BitSelect { base, index } => {
                let Some(idx) = self.eval_index(index) else {
                    return Err(value);
                };
                let width = self.design.width(*base);
                if idx >= width as u64 {
                    return Err(value);
                }
                Ok(SlotWrite {
                    target: *base,
                    range: Some((idx as u32, 1)),
                    value: value.into_width(1),
                })
            }
            LValue::IndexedPart { base, start, width } => {
                let Some(s) = self.eval_index(start) else {
                    return Err(value);
                };
                let sig_w = self.design.width(*base) as u64;
                if s >= sig_w {
                    return Err(value);
                }
                Ok(SlotWrite {
                    target: *base,
                    range: Some((s as u32, *width)),
                    value: value.into_width(*width),
                })
            }
        }
    }

    /// Evaluates a dynamic lvalue index, returning `None` when unknown.
    fn eval_index(&mut self, e: &eraser_ir::Expr) -> Option<u64> {
        // Index expressions are (virtually always) word-sized; asking for
        // the inline storage class avoids popping a boxed wide buffer.
        let mut idx = self.scratch.take_for(64);
        self.eval_into(e, &mut idx);
        let r = idx.to_u64();
        self.scratch.put(idx);
        r
    }

    /// Folds the most recently pushed blocking write into the overlay, in
    /// place: partial writes patch the existing overlay entry (seeding it
    /// from the base value on first touch), full writes replace it.
    fn apply_last_blocking(&mut self) {
        let w = self.blocking_writes.last().expect("just pushed");
        let sig = w.target;
        let idx = self.overlay_map[sig.index()];
        if idx != u32::MAX {
            w.apply_assign(&mut self.overlay[idx as usize].1);
            return;
        }
        let mut cur = self.scratch.take_for(self.design.width(sig));
        match w.range {
            // Full write: the overlay entry is exactly the written value.
            None => cur.assign_from(&w.value),
            Some(_) => {
                cur.assign_from(self.base.value(sig));
                w.apply_assign(&mut cur);
            }
        }
        self.overlay_map[sig.index()] = self.overlay.len() as u32;
        self.overlay.push((sig, cur));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueStore;
    use eraser_frontend::compile;

    /// One event of an execution path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TraceEvent {
        /// A path decision node was evaluated with the given encoded outcome.
        Decision {
            /// The decision node.
            id: DecisionId,
            /// Encoded branch outcome (see
            /// [`DecisionEval::evaluate`](eraser_ir::DecisionEval::evaluate)).
            outcome: u32,
        },
        /// A path dependency segment (one assignment) was executed.
        Segment(SegmentId),
    }

    /// The recorded execution path of one activation.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct ExecTrace {
        /// Events in execution order.
        events: Vec<TraceEvent>,
    }

    /// A monitor that records the execution path as an [`ExecTrace`].
    #[derive(Default)]
    struct TraceMonitor {
        /// The trace recorded so far.
        trace: ExecTrace,
    }

    impl ExecMonitor for TraceMonitor {
        fn on_decision(&mut self, id: DecisionId, outcome: u32, _: &[(SignalId, LogicVec)]) {
            self.trace.events.push(TraceEvent::Decision { id, outcome });
        }
        fn on_segment(&mut self, id: SegmentId, _: &[(SignalId, LogicVec)]) {
            self.trace.events.push(TraceEvent::Segment(id));
        }
    }

    /// Executes one activation of `node` reading from `base`, recording its
    /// path.
    fn execute_behavioral<S: ValueSource + ?Sized>(
        design: &Design,
        node: &BehavioralNode,
        base: &S,
    ) -> (ExecOutcome, ExecTrace) {
        let mut mon = TraceMonitor::default();
        let out = execute_monitored(design, node, base, &mut mon);
        (out, mon.trace)
    }

    /// Executes one activation of `node` with a throwaway context.
    fn execute_monitored<S: ValueSource + ?Sized, M: ExecMonitor + ?Sized>(
        design: &Design,
        node: &BehavioralNode,
        base: &S,
        monitor: &mut M,
    ) -> ExecOutcome {
        let mut ctx = ExecCtx::new();
        let mut out = ExecOutcome::default();
        execute_into(design, node, base, monitor, &mut ctx, &mut out);
        out
    }

    fn setup(src: &str) -> (Design, ValueStore) {
        let d = compile(src, None).unwrap();
        let store = ValueStore::new(&d);
        (d, store)
    }

    #[test]
    fn blocking_writes_are_visible_within_execution() {
        let (d, mut store) = setup(
            "module m(input wire [7:0] a, output reg [7:0] q);
               reg [7:0] t;
               always @(*) begin
                 t = a + 8'h01;
                 q = t + t;
               end
             endmodule",
        );
        let a = d.find_signal("a").unwrap();
        let q = d.find_signal("q").unwrap();
        store.set(a, LogicVec::from_u64(8, 4));
        let (out, _) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        let qv = out.blocking.iter().find(|(s, _)| *s == q).unwrap();
        assert_eq!(qv.1.to_u64(), Some(10));
        assert!(out.nba.is_empty());
        assert_eq!(out.blocking_writes.len(), 2);
    }

    #[test]
    fn nba_writes_are_deferred_and_ordered() {
        let (d, mut store) = setup(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               always @(posedge clk) begin
                 q <= a;
                 q <= a + 4'h1;
               end
             endmodule",
        );
        let a = d.find_signal("a").unwrap();
        store.set(a, LogicVec::from_u64(4, 3));
        let (out, _) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        assert_eq!(out.nba.len(), 2);
        // Last write wins when applied in order.
        let q = d.find_signal("q").unwrap();
        let mut cur = LogicVec::new_x(4);
        for w in &out.nba {
            assert_eq!(w.target, q);
            cur = w.apply(&cur);
        }
        assert_eq!(cur.to_u64(), Some(4));
        assert!(out.blocking.is_empty());
    }

    #[test]
    fn trace_records_decisions_and_segments() {
        let (d, mut store) = setup(
            "module m(input wire s, input wire [3:0] a, output reg [3:0] q);
               always @(*) begin
                 if (s) q = a;
                 else q = 4'h0;
               end
             endmodule",
        );
        let s = d.find_signal("s").unwrap();
        store.set(s, LogicVec::from_u64(1, 1));
        let (_, trace) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        assert_eq!(trace.events.len(), 2);
        assert!(matches!(
            trace.events[0],
            TraceEvent::Decision { outcome: 1, .. }
        ));
        assert!(matches!(trace.events[1], TraceEvent::Segment(_)));
        // X condition takes the else path.
        store.set(s, LogicVec::new_x(1));
        let (_, trace) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        assert!(matches!(
            trace.events[0],
            TraceEvent::Decision { outcome: 0, .. }
        ));
    }

    #[test]
    fn case_decision_outcomes() {
        let (d, mut store) = setup(
            "module m(input wire [1:0] s, output reg [3:0] q);
               always @(*) begin
                 case (s)
                   2'd0: q = 4'h1;
                   2'd1: q = 4'h2;
                   default: q = 4'hf;
                 endcase
               end
             endmodule",
        );
        let s = d.find_signal("s").unwrap();
        let node = &d.behavioral_nodes()[0];
        store.set(s, LogicVec::from_u64(2, 1));
        let (out, trace) = execute_behavioral(&d, node, &store);
        assert!(matches!(
            trace.events[0],
            TraceEvent::Decision { outcome: 1, .. }
        ));
        assert_eq!(out.blocking[0].1.to_u64(), Some(2));
        store.set(s, LogicVec::from_u64(2, 3));
        let (out, trace) = execute_behavioral(&d, node, &store);
        assert!(matches!(
            trace.events[0],
            TraceEvent::Decision { outcome: 2, .. }
        ));
        assert_eq!(out.blocking[0].1.to_u64(), Some(0xf));
    }

    #[test]
    fn for_loop_executes_and_traces_each_iteration() {
        let (d, mut store) = setup(
            "module m(input wire [7:0] a, output reg [7:0] q);
               integer i;
               always @(*) begin
                 q = 8'h00;
                 for (i = 0; i < 8; i = i + 1)
                   q[i] = a[i] ^ 1'b1;
               end
             endmodule",
        );
        let a = d.find_signal("a").unwrap();
        let q = d.find_signal("q").unwrap();
        store.set(a, LogicVec::from_u64(8, 0b1010_1010));
        let (out, trace) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        let qv = out.blocking.iter().find(|(s, _)| *s == q).unwrap();
        assert_eq!(qv.1.to_u64(), Some(0b0101_0101));
        // 9 loop-condition decisions (8 true + 1 false).
        let decisions = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision { .. }))
            .count();
        assert_eq!(decisions, 9);
    }

    #[test]
    fn unknown_dynamic_index_writes_nothing() {
        let (d, store) = setup(
            "module m(input wire [2:0] i, output reg [7:0] q);
               always @(*) q[i] = 1'b1;
             endmodule",
        );
        // i is X -> no write at all.
        let (out, _) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        assert!(out.blocking.is_empty());
    }

    #[test]
    fn partial_write_preserves_other_bits() {
        let (d, mut store) = setup(
            "module m(input wire [3:0] a, output reg [7:0] q);
               always @(*) q[7:4] = a;
             endmodule",
        );
        let a = d.find_signal("a").unwrap();
        let q = d.find_signal("q").unwrap();
        store.set(a, LogicVec::from_u64(4, 0x9));
        store.set(q, LogicVec::from_u64(8, 0x34));
        let (out, _) = execute_behavioral(&d, &d.behavioral_nodes()[0], &store);
        let qv = out.blocking.iter().find(|(s, _)| *s == q).unwrap();
        assert_eq!(qv.1.to_u64(), Some(0x94));
    }

    #[test]
    fn monitor_sees_overlay_state() {
        struct OverlayProbe {
            at_decision: Vec<usize>,
        }
        impl ExecMonitor for OverlayProbe {
            fn on_decision(&mut self, _: DecisionId, _: u32, ov: &[(SignalId, LogicVec)]) {
                self.at_decision.push(ov.len());
            }
            fn on_segment(&mut self, _: SegmentId, _: &[(SignalId, LogicVec)]) {}
        }
        let (d, store) = setup(
            "module m(input wire c, output reg [3:0] q);
               reg [3:0] t;
               always @(*) begin
                 t = 4'h1;
                 if (c) q = t; else q = 4'h0;
               end
             endmodule",
        );
        let mut probe = OverlayProbe {
            at_decision: Vec::new(),
        };
        execute_monitored(&d, &d.behavioral_nodes()[0], &store, &mut probe);
        // By the time the `if` is evaluated, t is in the overlay.
        assert_eq!(probe.at_decision, vec![1]);
    }
}
