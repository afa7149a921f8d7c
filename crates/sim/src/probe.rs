//! Good-run activation probing — the measurement side of activation-window
//! analysis.
//!
//! A [`SiteProbe`] rides along one instrumented replay of the fault-free
//! design and records, with **commit granularity** (every committed value
//! change, including transients inside a settle step), everything the
//! activation-window derivation in `eraser-fault` needs:
//!
//! * per fault-site signal and bit: the first stimulus step at which the
//!   bit committed a defined `0`, a defined `1`, and an unknown (`X`/`Z`)
//!   — from which the first *contradiction* of each stuck-at polarity and
//!   the first *refinement divergence* (forced unknown) follow directly;
//! * per signal: the first step at which an **X hazard** involving it was
//!   observed. Hazards are the points where the monotone-refinement
//!   argument breaks — the places where a fault network that merely
//!   *refines* the good network (defined values where the good run has
//!   `X`) could nonetheless diverge in behavior:
//!   - a path decision whose outcome is unknown-sensitive (an `if`/`for`
//!     condition with `X` truth, a `case` scrutinee or label carrying
//!     unknowns) — refinement can flip the branch,
//!   - a dynamic lvalue index that evaluated to unknown (the write is
//!     skipped; refinement would perform it),
//!   - an edge-watched signal whose bit 0 held `X` (IEEE event rules fire
//!     `X -> 1` as posedge, so refinement changes firing),
//!   - a level-sensitive block with an incomplete sensitivity list (its
//!     activation under refinement is not reproducible from the good run).
//!
//! The probe is deliberately fault-agnostic: it tracks *signals*, and the
//! derivation joins its data against a concrete fault list. Everything is
//! step-stamped by the driving campaign via
//! [`ReplaySim::begin_probe_step`](crate::ReplaySim::begin_probe_step);
//! state present before the first step (the power-on/construction settle)
//! is recorded as step 0 by [`SiteProbe::observe_initial`].

use crate::interp::ExecMonitor;
use crate::store::ValueStore;
use eraser_ir::{
    eval_expr_into, DecisionEval, DecisionId, DecisionInfo, Design, EvalScratch, Expr, SegmentId,
    Sensitivity, SignalId, ValueSource, Vdg,
};
use eraser_logic::{LogicBit, LogicVec};

/// Marker for "never observed".
pub const NEVER: usize = usize::MAX;

/// First-occurrence steps of each bit state at one tracked site bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFirsts {
    /// First step the bit committed a defined `0`.
    pub zero: usize,
    /// First step the bit committed a defined `1`.
    pub one: usize,
    /// First step the bit committed an unknown (`X` or `Z`).
    pub x: usize,
}

impl Default for BitFirsts {
    fn default() -> Self {
        BitFirsts {
            zero: NEVER,
            one: NEVER,
            x: NEVER,
        }
    }
}

/// The first-occurrence records of one tracked site signal, with per-word
/// masks of the bit states already seen: a commit that shows no bit in a
/// state for the first time — nearly every commit after the first few
/// cycles — costs three AND-NOTs per 64 bits and visits no bit.
#[derive(Debug, Clone)]
struct SiteRecord {
    firsts: Box<[BitFirsts]>,
    /// Per 64-bit word: bits already seen as defined `0`, defined `1`,
    /// unknown. A set bit's `firsts` slot is final.
    seen: Box<[[u64; 3]]>,
}

impl SiteRecord {
    fn new(width: usize) -> Self {
        SiteRecord {
            firsts: vec![BitFirsts::default(); width].into_boxed_slice(),
            seen: vec![[0; 3]; width.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Stamps `step` on every (bit, state) pair `value` shows for the
    /// first time. Steps only ascend over a replay, so a slot stamped once
    /// already holds its minimum.
    fn record(&mut self, value: &LogicVec, step: usize) {
        let (avals, bvals) = (value.avals(), value.bvals());
        for (w, seen) in self.seen.iter_mut().enumerate() {
            let base = w * 64;
            let site_mask = word_mask(self.firsts.len() - base);
            // Bits the value does not have read as unknown, like an
            // out-of-range select.
            let value_mask = word_mask((value.width() as usize).saturating_sub(base));
            let a = avals.get(w).copied().unwrap_or(0);
            let b = bvals.get(w).copied().unwrap_or(0);
            let firsts = &mut self.firsts[base..];
            let [zero, one, x] = seen;
            stamp_new(firsts, zero, !a & !b & value_mask & site_mask, step, |f| {
                &mut f.zero
            });
            stamp_new(firsts, one, a & !b & site_mask, step, |f| &mut f.one);
            stamp_new(firsts, x, (b | !value_mask) & site_mask, step, |f| &mut f.x);
        }
    }
}

/// Stamps `step` on `slot` of every bit set in `now` and not yet in `seen`
/// (bit `i` is `firsts[i]`), then folds `now` into `seen`.
fn stamp_new(
    firsts: &mut [BitFirsts],
    seen: &mut u64,
    now: u64,
    step: usize,
    slot: impl Fn(&mut BitFirsts) -> &mut usize,
) {
    let mut new = now & !*seen;
    *seen |= now;
    while new != 0 {
        *slot(&mut firsts[new.trailing_zeros() as usize]) = step;
        new &= new - 1;
    }
}

/// The low `bits` bits set (all 64 from 64 up).
fn word_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Commit-granular activation/hazard recorder for one good replay. See the
/// module docs of `probe.rs`.
#[derive(Debug, Clone)]
pub struct SiteProbe {
    step: usize,
    /// Per signal: first-occurrence records for tracked sites.
    sites: Vec<Option<SiteRecord>>,
    /// Per signal: first step an X hazard involving it was observed
    /// ([`NEVER`] = none).
    hazard: Vec<usize>,
    /// Per signal: the signal feeds an edge sensitivity list.
    edge_watched: Vec<bool>,
    scratch: EvalScratch,
}

impl SiteProbe {
    /// Creates a probe over `design` tracking the given site signals
    /// (duplicates are fine).
    pub fn new(design: &Design, sites: impl IntoIterator<Item = SignalId>) -> Self {
        let n = design.num_signals();
        let mut probe = SiteProbe {
            step: 0,
            sites: vec![None; n],
            hazard: vec![NEVER; n],
            edge_watched: (0..n)
                .map(|i| !design.edge_fanout(SignalId::from_index(i)).is_empty())
                .collect(),
            scratch: EvalScratch::new(),
        };
        for sig in sites {
            let width = design.signal(sig).width as usize;
            probe.sites[sig.index()].get_or_insert_with(|| SiteRecord::new(width));
        }
        probe
    }

    /// Sets the stimulus step subsequent observations are attributed to.
    /// Steps must not descend over a replay.
    pub fn begin_step(&mut self, step: usize) {
        debug_assert!(step >= self.step, "probe steps must not descend");
        self.step = step;
    }

    /// Records the baseline: the current (construction-settled) state of
    /// every tracked site, power-on X hazards on edge-watched signals, and
    /// static decision hazards of the level-sensitive blocks that executed
    /// during construction. Called by
    /// [`ReplaySim::attach_probe`](crate::ReplaySim::attach_probe)
    /// implementations.
    pub fn observe_initial(&mut self, design: &Design, values: &ValueStore) {
        for i in 0..self.sites.len() {
            let sig = SignalId::from_index(i);
            if let Some(site) = &mut self.sites[i] {
                site.record(values.get(sig), self.step);
            }
            if self.edge_watched[i]
                && !matches!(values.get(sig).bit_or_x(0), LogicBit::Zero | LogicBit::One)
            {
                self.mark_hazard(sig);
            }
        }
        for node in design.behavioral_nodes() {
            match &node.sensitivity {
                Sensitivity::Edges(_) => {}
                Sensitivity::Star => self.static_decision_scan(&node.vdg, values),
                Sensitivity::Level(list) => {
                    self.static_decision_scan(&node.vdg, values);
                    // Incomplete sensitivity list: activations under a
                    // refined fault network are not reproducible from the
                    // good run — conservatively hazard everything the
                    // block reads.
                    if node.reads.iter().any(|r| !list.contains(r)) {
                        for &r in &node.reads {
                            self.mark_hazard(r);
                        }
                    }
                }
            }
        }
    }

    /// Records a committed value of `sig` (called for every changed commit
    /// and harmlessly idempotent on repeats).
    #[inline]
    pub fn observe_commit(&mut self, sig: SignalId, value: &LogicVec) {
        if let Some(site) = &mut self.sites[sig.index()] {
            site.record(value, self.step);
        }
        if self.edge_watched[sig.index()]
            && !matches!(value.bit_or_x(0), LogicBit::Zero | LogicBit::One)
        {
            self.mark_hazard(sig);
        }
    }

    /// Checks one evaluated path decision for unknown-sensitivity and, if
    /// its outcome could flip under X refinement, hazards every read
    /// signal currently carrying unknowns.
    pub fn decision_hazard(&mut self, info: &DecisionInfo, view: &dyn ValueSource) {
        // Fast pre-filter: a decision over fully defined reads can never
        // flip under refinement.
        if !info.reads.iter().any(|r| view.value(*r).has_unknown()) {
            return;
        }
        let flippable = match &info.eval {
            DecisionEval::Truth(cond) => {
                let mut v = self.scratch.take();
                eval_expr_into(cond, view, &mut self.scratch, &mut v);
                let t = v.truth();
                self.scratch.put(v);
                // A defined `1` (some defined one-bit) or defined `0` (all
                // bits defined zero) truth survives any refinement.
                !matches!(t, LogicBit::Zero | LogicBit::One)
            }
            DecisionEval::Case {
                scrutinee,
                arm_labels,
                ..
            } => {
                let mut v = self.scratch.take();
                eval_expr_into(scrutinee, view, &mut self.scratch, &mut v);
                let mut unknown = v.has_unknown();
                if !unknown {
                    'labels: for labels in arm_labels {
                        for label in labels {
                            eval_expr_into(label, view, &mut self.scratch, &mut v);
                            if v.has_unknown() {
                                unknown = true;
                                break 'labels;
                            }
                        }
                    }
                }
                self.scratch.put(v);
                unknown
            }
        };
        if flippable {
            for &r in &info.reads {
                if view.value(r).has_unknown() {
                    self.mark_hazard(r);
                }
            }
        }
    }

    /// Records a dynamic lvalue index that evaluated to unknown: the write
    /// was skipped, refinement would perform it. Hazards the unknown-valued
    /// reads of the index expression.
    pub fn index_hazard(&mut self, index: &Expr, view: &dyn ValueSource) {
        let mut reads = Vec::new();
        index.collect_reads(&mut reads);
        for r in reads {
            if view.value(r).has_unknown() {
                self.mark_hazard(r);
            }
        }
    }

    /// Per-bit first-occurrence records of a tracked site, if tracked.
    pub fn site_firsts(&self, sig: SignalId) -> Option<&[BitFirsts]> {
        self.sites[sig.index()].as_ref().map(|r| &*r.firsts)
    }

    /// First step an X hazard involving `sig` was observed ([`NEVER`] if
    /// none).
    pub fn hazard_step(&self, sig: SignalId) -> usize {
        self.hazard[sig.index()]
    }

    // ---- internals ----

    fn mark_hazard(&mut self, sig: SignalId) {
        let h = &mut self.hazard[sig.index()];
        *h = (*h).min(self.step);
    }

    fn static_decision_scan(&mut self, vdg: &Vdg, values: &ValueStore) {
        for d in &vdg.decisions {
            self.decision_hazard(d, values);
        }
    }
}

/// The [`ExecMonitor`] that feeds a [`SiteProbe`] during instrumented
/// behavioral executions of the good replay. Constructed per activation
/// with the node's VDG, so decision ids resolve to their read sets and
/// `Evaluate` payloads.
pub struct ProbeMonitor<'a> {
    probe: &'a mut SiteProbe,
    vdg: &'a Vdg,
}

impl<'a> ProbeMonitor<'a> {
    /// Wraps `probe` for one activation of the node owning `vdg`.
    pub fn new(probe: &'a mut SiteProbe, vdg: &'a Vdg) -> Self {
        ProbeMonitor { probe, vdg }
    }
}

impl ExecMonitor for ProbeMonitor<'_> {
    fn on_decision(&mut self, _: DecisionId, _: u32, _: &[(SignalId, LogicVec)]) {}
    fn on_segment(&mut self, _: SegmentId, _: &[(SignalId, LogicVec)]) {}

    fn on_decision_view(&mut self, id: DecisionId, view: &dyn ValueSource) {
        self.probe
            .decision_hazard(&self.vdg.decisions[id.index()], view);
    }

    fn on_unknown_index(&mut self, index: &Expr, view: &dyn ValueSource) {
        self.probe.index_hazard(index, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_frontend::compile;

    #[test]
    fn records_site_firsts_and_edge_hazards() {
        let d = compile(
            "module m(input wire clk, input wire [1:0] a, output reg [1:0] q);
               always @(posedge clk) q <= a;
             endmodule",
            None,
        )
        .unwrap();
        let q = d.find_signal("q").unwrap();
        let clk = d.find_signal("clk").unwrap();
        let store = ValueStore::new(&d);
        let mut probe = SiteProbe::new(&d, [q]);
        probe.observe_initial(&d, &store);
        // Power-on: q is X at step 0; clk (edge-watched) is X -> hazard.
        let firsts = probe.site_firsts(q).unwrap();
        assert_eq!(firsts[0].x, 0);
        assert_eq!(firsts[0].zero, NEVER);
        assert_eq!(probe.hazard_step(clk), 0);
        // Commit a defined value at step 3.
        probe.begin_step(3);
        probe.observe_commit(q, &LogicVec::from_u64(2, 0b10));
        let firsts = probe.site_firsts(q).unwrap();
        assert_eq!(firsts[0].zero, 3);
        assert_eq!(firsts[1].one, 3);
        assert_eq!(firsts[1].zero, NEVER);
        // Untracked signals are ignored without panicking.
        probe.observe_commit(clk, &LogicVec::from_u64(1, 1));
        assert!(probe.site_firsts(clk).is_none());
    }

    /// The recorder the masks replaced: walk every bit on every commit.
    fn record_per_bit(firsts: &mut [BitFirsts], value: &LogicVec, step: usize) {
        for (bit, f) in firsts.iter_mut().enumerate() {
            let slot = match value.bit_or_x(bit as u32) {
                LogicBit::Zero => &mut f.zero,
                LogicBit::One => &mut f.one,
                _ => &mut f.x,
            };
            *slot = (*slot).min(step);
        }
    }

    #[test]
    fn masked_recorder_matches_per_bit_reference_on_random_commits() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in [1usize, 7, 63, 64, 65, 130] {
            for round in 0..8 {
                let mut site = SiteRecord::new(width);
                let mut reference = vec![BitFirsts::default(); width];
                let mut step = 0;
                for commit in 0..200 {
                    // Mostly the site's own width; now and then a narrower
                    // or wider value, whose missing bits read as unknown.
                    let value_width = match next() % 8 {
                        0 => 1 + (next() as usize) % (width + 70),
                        _ => width,
                    };
                    // Early commits are sparse (mostly 0 or mostly X) so
                    // firsts land at many different steps.
                    let bits: Vec<LogicBit> = (0..value_width)
                        .map(|_| match (next() % 16, round % 2) {
                            (0, _) => LogicBit::One,
                            (1, _) => LogicBit::X,
                            (2, _) => LogicBit::Z,
                            (_, 0) if commit < 100 => LogicBit::Zero,
                            (_, _) if commit < 100 => LogicBit::X,
                            (r, _) if r % 2 == 0 => LogicBit::Zero,
                            _ => LogicBit::One,
                        })
                        .collect();
                    let value = LogicVec::from_bits(&bits);
                    step += (next() % 3) as usize; // repeats and gaps
                    site.record(&value, step);
                    record_per_bit(&mut reference, &value, step);
                    assert_eq!(&*site.firsts, &reference[..], "width {width} step {step}");
                }
            }
        }
    }

    #[test]
    fn x_decision_hazards_unknown_reads_only() {
        let d = compile(
            "module m(input wire s, input wire [3:0] a, output reg [3:0] q);
               always @(*) begin
                 if (s) q = a; else q = 4'h0;
               end
             endmodule",
            None,
        )
        .unwrap();
        let s = d.find_signal("s").unwrap();
        let a = d.find_signal("a").unwrap();
        let mut store = ValueStore::new(&d);
        store.set(a, LogicVec::from_u64(4, 5));
        let mut probe = SiteProbe::new(&d, []);
        probe.begin_step(2);
        let vdg = &d.behavioral_nodes()[0].vdg;
        // s is X: the decision can flip under refinement.
        probe.decision_hazard(&vdg.decisions[0], &store);
        assert_eq!(probe.hazard_step(s), 2);
        assert_eq!(probe.hazard_step(a), NEVER, "defined reads stay clean");
        // With s defined the decision is refinement-stable.
        let mut probe = SiteProbe::new(&d, []);
        store.set(s, LogicVec::from_u64(1, 1));
        probe.decision_hazard(&vdg.decisions[0], &store);
        assert_eq!(probe.hazard_step(s), NEVER);
    }

    #[test]
    fn defined_one_truth_with_other_unknowns_is_stable() {
        // Condition (a | b): a has a defined 1 bit -> truth is One even
        // though b is X; refinement cannot flip it.
        let d = compile(
            "module m(input wire [1:0] a, input wire [1:0] b, output reg [1:0] q);
               always @(*) begin
                 if (a | b) q = 2'h1; else q = 2'h0;
               end
             endmodule",
            None,
        )
        .unwrap();
        let a = d.find_signal("a").unwrap();
        let b = d.find_signal("b").unwrap();
        let mut store = ValueStore::new(&d);
        store.set(a, LogicVec::from_u64(2, 0b01));
        let mut probe = SiteProbe::new(&d, []);
        let vdg = &d.behavioral_nodes()[0].vdg;
        probe.decision_hazard(&vdg.decisions[0], &store);
        assert_eq!(probe.hazard_step(a), NEVER);
        assert_eq!(probe.hazard_step(b), NEVER);
    }
}
