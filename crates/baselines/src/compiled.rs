//! Levelized full-evaluation simulator (the VFsim substrate).

use eraser_ir::{BehavioralId, CombItem, Design, EvalBackend, Sensitivity, SignalId, TapeProgram};
use eraser_logic::{LogicBit, LogicVec};
use eraser_sim::{
    assign_logic_slice, Evaluator, ExecCtx, ExecOutcome, NoopMonitor, ProbeMonitor, ReplaySim,
    SimSnapshot, SiteProbe, SlotWrite, ValueStore,
};

/// Bound on evaluation rounds per settle step.
const ROUND_LIMIT: usize = 10_000;

/// A compiled-style simulator: no event queue, no fanout tracking — every
/// combinational item is evaluated every round in the design's precomputed
/// topological order, Verilator-fashion.
///
/// Sequential activation, non-blocking commit ordering, edge rules and
/// four-state semantics are identical to the event-driven
/// [`Simulator`](eraser_sim::Simulator), so both produce identical traces;
/// only the *work profile* differs (constant full-design work per step
/// versus activity-proportional work).
#[derive(Debug, Clone)]
pub struct CompiledSim<'d> {
    design: &'d Design,
    /// The backend every node of the design is evaluated on.
    eval: Evaluator<'d>,
    /// Execution scratch (expression arena + tape slots).
    ctx: ExecCtx,
    values: ValueStore,
    edge_prev: Vec<LogicVec>,
    /// Signals watched by edge-triggered nodes (precomputed).
    watched: Vec<SignalId>,
    forces: Vec<(SignalId, u32, LogicBit)>,
    nba: Vec<SlotWrite>,
    /// Activation probe for instrumented good replays (`None` = the
    /// zero-overhead default).
    probe: Option<Box<SiteProbe>>,
}

impl<'d> CompiledSim<'d> {
    /// Creates the simulator on the tree walker and performs the initial
    /// full evaluation.
    pub fn new(design: &'d Design) -> Self {
        Self::with_evaluator(Evaluator::tree(design))
    }

    /// Creates the simulator pinned to `backend`.
    pub fn with_backend(design: &'d Design, backend: EvalBackend) -> Self {
        Self::with_evaluator(Evaluator::for_backend(design, backend))
    }

    /// Creates the simulator on the tape backend with a shared,
    /// pre-compiled program (one lowering per campaign, not per fault).
    pub fn with_tapes(design: &'d Design, tapes: &'d TapeProgram) -> Self {
        Self::with_evaluator(Evaluator::shared(design, Some(tapes)))
    }

    /// Creates the simulator over `eval`'s design and backend — the form
    /// the other constructors reduce to.
    pub fn with_evaluator(eval: Evaluator<'d>) -> Self {
        let design = eval.design();
        let values = ValueStore::new(design);
        let edge_prev = design
            .signals()
            .iter()
            .map(|s| LogicVec::new_x(s.width))
            .collect();
        let watched = (0..design.num_signals())
            .map(SignalId::from_index)
            .filter(|s| !design.edge_fanout(*s).is_empty())
            .collect();
        let mut sim = CompiledSim {
            design,
            eval,
            ctx: ExecCtx::new(),
            values,
            edge_prev,
            watched,
            forces: Vec::new(),
            nba: Vec::new(),
            probe: None,
        };
        sim.settle_step(&[]);
        sim
    }

    /// The current value of a signal.
    pub fn value(&self, sig: SignalId) -> &LogicVec {
        self.values.get(sig)
    }

    /// Permanently forces one bit of a signal (fault injection).
    pub fn add_force(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.forces.push((sig, bit, value));
        let v = self.values.get(sig).clone();
        self.commit(sig, v);
        self.settle_step(&[]);
    }

    fn commit(&mut self, sig: SignalId, mut value: LogicVec) -> bool {
        for &(fs, bit, b) in &self.forces {
            if fs == sig && bit < value.width() {
                value.set_bit(bit, b);
            }
        }
        if let Some(p) = &mut self.probe {
            p.observe_commit(sig, &value);
        }
        self.values.set(sig, value)
    }

    /// Applies input changes and settles: full combinational evaluation
    /// rounds, edge detection, sequential execution and NBA commit, until
    /// stable.
    ///
    /// # Panics
    ///
    /// Panics if the design fails to settle within an internal bound.
    pub fn settle_step(&mut self, changes: &[(SignalId, LogicVec)]) {
        for (sig, v) in changes {
            let v = v.resize(self.design.signal(*sig).width);
            self.commit(*sig, v);
        }
        for _ in 0..ROUND_LIMIT {
            self.eval_comb_fixpoint();
            let activated = self.detect_edges();
            for b in &activated {
                self.run_seq(*b);
            }
            let committed = self.commit_nba();
            if activated.is_empty() && !committed {
                return;
            }
        }
        panic!("design did not settle within {ROUND_LIMIT} evaluation rounds");
    }

    /// Evaluates every combinational item, in topological order, until no
    /// value changes (one pass normally suffices).
    fn eval_comb_fixpoint(&mut self) {
        for _ in 0..ROUND_LIMIT {
            let mut changed = false;
            for item in self.design.comb_order() {
                match item {
                    CombItem::Rtl(id) => {
                        let node = self.design.rtl_node(*id);
                        let mut out = LogicVec::default();
                        self.eval.rtl(*id, &self.values, &mut self.ctx, &mut out);
                        changed |= self.commit(node.output, out);
                    }
                    CombItem::Beh(id) => {
                        let out = self.execute_behavioral(*id);
                        for (sig, val) in out.blocking {
                            changed |= self.commit(sig, val);
                        }
                        self.nba.extend(out.nba);
                    }
                }
            }
            if !changed {
                return;
            }
        }
        panic!("combinational network failed to reach a fixpoint");
    }

    /// Executes one behavioral node on the configured backend, feeding the
    /// activation probe when one is attached.
    fn execute_behavioral(&mut self, id: BehavioralId) -> ExecOutcome {
        let node = self.design.behavioral(id);
        let mut out = ExecOutcome::default();
        match self.probe.take() {
            Some(mut p) => {
                let mut mon = ProbeMonitor::new(&mut p, &node.vdg);
                self.eval
                    .behavioral(id, &self.values, &mut mon, &mut self.ctx, &mut out);
                self.probe = Some(p);
            }
            None => {
                self.eval
                    .behavioral(id, &self.values, &mut NoopMonitor, &mut self.ctx, &mut out)
            }
        }
        out
    }

    fn detect_edges(&mut self) -> Vec<BehavioralId> {
        let mut activated = Vec::new();
        for wi in 0..self.watched.len() {
            let sig = self.watched[wi];
            let prev = self.edge_prev[sig.index()].clone();
            let cur = self.values.get(sig).clone();
            if prev == cur {
                continue;
            }
            for &b in self.design.edge_fanout(sig) {
                if activated.contains(&b) {
                    continue;
                }
                let node = self.design.behavioral(b);
                if let Sensitivity::Edges(edges) = &node.sensitivity {
                    let fired = edges.iter().any(|(kind, s)| {
                        *s == sig && kind.matches(prev.bit_or_x(0), cur.bit_or_x(0))
                    });
                    if fired {
                        activated.push(b);
                    }
                }
            }
            self.edge_prev[sig.index()] = cur;
        }
        activated
    }

    fn run_seq(&mut self, id: BehavioralId) {
        let out = self.execute_behavioral(id);
        for (sig, val) in out.blocking {
            self.commit(sig, val);
        }
        self.nba.extend(out.nba);
    }

    fn commit_nba(&mut self) -> bool {
        if self.nba.is_empty() {
            return false;
        }
        let writes = std::mem::take(&mut self.nba);
        let mut any = false;
        for w in writes {
            let next = w.apply(self.values.get(w.target));
            any |= self.commit(w.target, next);
        }
        any
    }
}

impl ReplaySim for CompiledSim<'_> {
    fn capture_into(&self, snap: &mut SimSnapshot) {
        assert!(self.nba.is_empty(), "capture requires a settled simulator");
        assign_logic_slice(&mut snap.values, self.values.as_slice());
        assign_logic_slice(&mut snap.edge_prev, &self.edge_prev);
        snap.forces.clear();
        snap.forces.extend_from_slice(&self.forces);
        snap.deltas = 0;
    }

    fn restore_from(&mut self, snap: &SimSnapshot) {
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
        self.nba.clear();
    }

    fn replay_step(&mut self, changes: &[(SignalId, LogicVec)]) {
        self.settle_step(changes);
    }

    fn signal_value(&self, sig: SignalId) -> &LogicVec {
        self.value(sig)
    }

    fn force_bit(&mut self, sig: SignalId, bit: u32, value: LogicBit) {
        self.add_force(sig, bit, value);
    }

    fn attach_probe(&mut self, mut probe: SiteProbe) {
        probe.observe_initial(self.design, &self.values);
        self.probe = Some(Box::new(probe));
    }

    fn take_probe(&mut self) -> Option<SiteProbe> {
        self.probe.take().map(|p| *p)
    }

    fn begin_probe_step(&mut self, step: usize) {
        if let Some(p) = &mut self.probe {
            p.begin_step(step);
        }
    }

    fn fully_defined(&self) -> bool {
        self.values.fully_defined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_frontend::compile;
    use eraser_sim::Simulator;

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
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let a = d.find_signal("a").unwrap();
        let acc = d.find_signal("acc").unwrap();
        let mix = d.find_signal("mix").unwrap();
        let mut ev = Simulator::new(&d);
        let mut cp = CompiledSim::new(&d);
        let drive = |ev: &mut Simulator, cp: &mut CompiledSim, sig, val: u64, w| {
            ev.set_input(sig, &LogicVec::from_u64(w, val));
            ev.step();
            cp.settle_step(&[(sig, LogicVec::from_u64(w, val))]);
        };
        drive(&mut ev, &mut cp, rst, 1, 1);
        for i in 0..20u64 {
            drive(&mut ev, &mut cp, a, i * 3 % 16, 4);
            if i == 1 {
                drive(&mut ev, &mut cp, rst, 0, 1);
            }
            drive(&mut ev, &mut cp, clk, 0, 1);
            drive(&mut ev, &mut cp, clk, 1, 1);
            assert_eq!(ev.value(acc), cp.value(acc), "cycle {i}");
            assert_eq!(ev.value(mix), cp.value(mix), "cycle {i}");
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
        let clk = d.find_signal("clk").unwrap();
        let rst = d.find_signal("rst").unwrap();
        let a = d.find_signal("a").unwrap();
        let steps: Vec<Vec<(SignalId, LogicVec)>> = (0..20u64)
            .flat_map(|i| {
                vec![
                    vec![
                        (clk, LogicVec::from_u64(1, 0)),
                        (rst, LogicVec::from_u64(1, (i < 2) as u64)),
                        (a, LogicVec::from_u64(4, i * 11 % 16)),
                    ],
                    vec![(clk, LogicVec::from_u64(1, 1))],
                ]
            })
            .collect();
        let mut full = CompiledSim::new(&d);
        let mut snap = SimSnapshot::new();
        let k = 13;
        for (si, step) in steps.iter().enumerate() {
            if si == k {
                full.capture_into(&mut snap);
            }
            full.settle_step(step);
        }
        // Restore into a dirty instance and replay only the suffix.
        let mut resumed = CompiledSim::new(&d);
        resumed.settle_step(&steps[0]);
        resumed.restore_from(&snap);
        for step in &steps[k..] {
            resumed.settle_step(step);
        }
        for i in 0..d.num_signals() {
            let s = SignalId::from_index(i);
            assert_eq!(full.value(s), resumed.value(s), "signal {i} diverged");
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
        let mut cp = CompiledSim::new(&d);
        cp.add_force(t, 0, LogicBit::One);
        cp.settle_step(&[(a, LogicVec::from_u64(4, 0))]);
        assert_eq!(cp.value(y).to_u64(), Some(1));
        cp.settle_step(&[(a, LogicVec::from_u64(4, 0b1110))]);
        assert_eq!(cp.value(y).to_u64(), Some(0b1111));
    }
}
