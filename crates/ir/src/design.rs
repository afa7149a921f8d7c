//! The elaborated design and its builder.

use crate::analysis::rtl_output_width;
use crate::ids::{BehavioralId, RtlNodeId, SignalId};
use crate::node::{BehavioralNode, RtlNode, RtlOp, Sensitivity};
use crate::stmt::Stmt;
use crate::vdg::Vdg;
use std::collections::HashMap;
use std::fmt;

/// Whether a signal is a net or a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// A net (`wire`): driven by an RTL node or a primary input.
    Wire,
    /// A variable (`reg`): written by behavioral nodes; holds state.
    Reg,
}

/// Port direction of a top-level signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input.
    Input,
    /// Primary output (an observation point for fault detection).
    Output,
}

/// One signal (net or variable) of the elaborated design.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Hierarchical name (e.g. `u_core.pc`).
    pub name: String,
    /// Width in bits (>= 1).
    pub width: u32,
    /// Net or variable.
    pub kind: SignalKind,
    /// Port direction if this is a top-level port.
    pub port: Option<PortDir>,
    /// True for compiler-generated intermediate nets (excluded from fault
    /// injection, like unnamed nets in commercial tools).
    pub synthetic: bool,
}

/// What drives a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// A primary input port.
    Input,
    /// The output of an RTL node.
    Rtl(RtlNodeId),
    /// Written by a behavioral node.
    Behavioral(BehavioralId),
}

/// The `beh_rank` entry of an edge-triggered node.
const NO_RANK: u32 = u32::MAX;

/// An item in the levelized combinational evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombItem {
    /// An RTL node.
    Rtl(RtlNodeId),
    /// A level-sensitive (combinational) behavioral node.
    Beh(BehavioralId),
}

/// Errors detected while finalizing a design.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Two drivers contend for one signal.
    MultipleDrivers {
        /// The contended signal's name.
        signal: String,
    },
    /// A primary input is driven inside the design.
    DrivenInput {
        /// The input's name.
        signal: String,
    },
    /// An RTL node output width disagrees with its operator's result width.
    WidthMismatch {
        /// The node's output signal name.
        signal: String,
        /// Width implied by the operator and inputs.
        expected: u32,
        /// Declared width of the output signal.
        actual: u32,
    },
    /// The combinational network contains a cycle.
    CombinationalCycle {
        /// Name of a signal on the cycle.
        signal: String,
    },
    /// An RTL node has the wrong number of inputs for its operator.
    BadArity {
        /// The node's output signal name.
        signal: String,
    },
    /// A duplicate signal name was registered.
    DuplicateName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MultipleDrivers { signal } => {
                write!(f, "signal `{signal}` has multiple drivers")
            }
            BuildError::DrivenInput { signal } => {
                write!(f, "primary input `{signal}` is driven inside the design")
            }
            BuildError::WidthMismatch {
                signal,
                expected,
                actual,
            } => write!(
                f,
                "node driving `{signal}` produces {expected} bits but the signal is {actual} bits"
            ),
            BuildError::CombinationalCycle { signal } => {
                write!(f, "combinational cycle through signal `{signal}`")
            }
            BuildError::BadArity { signal } => {
                write!(f, "node driving `{signal}` has the wrong number of inputs")
            }
            BuildError::DuplicateName { name } => {
                write!(f, "duplicate signal name `{name}`")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A fully elaborated, validated RTL design — the RTL graph of the paper.
///
/// Construct via [`DesignBuilder`] (directly or through the
/// `eraser-frontend` compiler). The design is immutable after construction;
/// all engines (good simulation, ERASER, baselines) share one instance.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    signals: Vec<Signal>,
    rtl_nodes: Vec<RtlNode>,
    behavioral: Vec<BehavioralNode>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    drivers: Vec<Option<Driver>>,
    rtl_fanout: Vec<Vec<RtlNodeId>>,
    level_fanout: Vec<Vec<BehavioralId>>,
    edge_fanout: Vec<Vec<BehavioralId>>,
    comb_order: Vec<CombItem>,
    /// Each item's position in `comb_order`, by RTL node and by behavioral
    /// node (`NO_RANK` for an edge-triggered one).
    rtl_rank: Vec<u32>,
    beh_rank: Vec<u32>,
    name_index: HashMap<String, SignalId>,
}

impl Design {
    /// The design (top module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All signals, indexed by [`SignalId`].
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// One signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// All RTL nodes, indexed by [`RtlNodeId`].
    pub fn rtl_nodes(&self) -> &[RtlNode] {
        &self.rtl_nodes
    }

    /// One RTL node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn rtl_node(&self, id: RtlNodeId) -> &RtlNode {
        &self.rtl_nodes[id.index()]
    }

    /// All behavioral nodes, indexed by [`BehavioralId`].
    pub fn behavioral_nodes(&self) -> &[BehavioralNode] {
        &self.behavioral
    }

    /// One behavioral node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn behavioral(&self, id: BehavioralId) -> &BehavioralNode {
        &self.behavioral[id.index()]
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs in declaration order — the observation points.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// What drives `sig`, if anything.
    pub fn driver(&self, sig: SignalId) -> Option<Driver> {
        self.drivers[sig.index()]
    }

    /// RTL nodes that read `sig`.
    pub fn rtl_fanout(&self, sig: SignalId) -> &[RtlNodeId] {
        &self.rtl_fanout[sig.index()]
    }

    /// Level-sensitive behavioral nodes activated by a change of `sig`.
    pub fn level_fanout(&self, sig: SignalId) -> &[BehavioralId] {
        &self.level_fanout[sig.index()]
    }

    /// Edge-triggered behavioral nodes watching `sig`.
    pub fn edge_fanout(&self, sig: SignalId) -> &[BehavioralId] {
        &self.edge_fanout[sig.index()]
    }

    /// Levelized combinational evaluation order (RTL nodes and
    /// level-sensitive behavioral nodes): every item after each item that
    /// produces one of its inputs. An item's position here is its *rank*
    /// ([`Design::rtl_rank`], [`Design::beh_rank`]): the simulator drains
    /// its dirty items lowest rank first, under either settle rule.
    pub fn comb_order(&self) -> &[CombItem] {
        &self.comb_order
    }

    /// RTL node `id`'s rank: its position in [`Design::comb_order`]. An
    /// item's rank exceeds the rank of every item it depends on, so
    /// draining dirty items lowest rank first evaluates each at most once
    /// per wave, after all of its dirty producers.
    #[inline]
    pub fn rtl_rank(&self, id: RtlNodeId) -> usize {
        self.rtl_rank[id.index()] as usize
    }

    /// Behavioral node `id`'s rank, as [`Design::rtl_rank`]; `None` for an
    /// edge-triggered node, which is not a combinational item.
    #[inline]
    pub fn beh_rank(&self, id: BehavioralId) -> Option<usize> {
        let rank = self.beh_rank[id.index()];
        (rank != NO_RANK).then_some(rank as usize)
    }

    /// Looks up a signal by (hierarchical) name.
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.name_index.get(name).copied()
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }
}

/// Incremental builder for [`Design`].
///
/// # Example
///
/// Build `assign d = a & b;` followed by a flop `always @(posedge c) q <= d;`:
///
/// ```
/// use eraser_ir::*;
///
/// let mut b = DesignBuilder::new("dut");
/// let a = b.add_port("a", 8, PortDir::Input);
/// let bb = b.add_port("b", 8, PortDir::Input);
/// let c = b.add_port("c", 1, PortDir::Input);
/// let d = b.add_signal("d", 8, SignalKind::Wire);
/// let q = b.add_port_reg("q", 8, PortDir::Output);
/// b.add_rtl_node(RtlOp::Binary(BinaryOp::And), vec![a, bb], d);
/// b.add_behavioral(
///     "ff",
///     Sensitivity::Edges(vec![(EdgeKind::Pos, c)]),
///     Stmt::assign(q, Expr::sig(d), false),
/// );
/// let design = b.finish()?;
/// assert_eq!(design.rtl_nodes().len(), 1);
/// assert_eq!(design.behavioral_nodes().len(), 1);
/// # Ok::<(), eraser_ir::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct DesignBuilder {
    name: String,
    signals: Vec<Signal>,
    rtl_nodes: Vec<RtlNode>,
    behavioral: Vec<(String, Sensitivity, Stmt)>,
    name_index: HashMap<String, SignalId>,
    duplicate: Option<String>,
}

impl DesignBuilder {
    /// Creates a builder for a design named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DesignBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Registers a signal and returns its id.
    pub fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: u32,
        kind: SignalKind,
    ) -> SignalId {
        self.add_signal_full(name, width, kind, None, false)
    }

    /// Registers a synthetic (compiler-generated) intermediate wire.
    pub fn add_temp(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        self.add_signal_full(name, width, SignalKind::Wire, None, true)
    }

    /// Registers a top-level wire port.
    pub fn add_port(&mut self, name: impl Into<String>, width: u32, dir: PortDir) -> SignalId {
        self.add_signal_full(name, width, SignalKind::Wire, Some(dir), false)
    }

    /// Registers a top-level `reg` output port (outputs driven by behavioral
    /// code).
    pub fn add_port_reg(&mut self, name: impl Into<String>, width: u32, dir: PortDir) -> SignalId {
        self.add_signal_full(name, width, SignalKind::Reg, Some(dir), false)
    }

    /// Registers a signal with full control over its attributes.
    pub fn add_signal_full(
        &mut self,
        name: impl Into<String>,
        width: u32,
        kind: SignalKind,
        port: Option<PortDir>,
        synthetic: bool,
    ) -> SignalId {
        let name = name.into();
        let id = SignalId::from_index(self.signals.len());
        if self.name_index.insert(name.clone(), id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.clone());
        }
        self.signals.push(Signal {
            name,
            width,
            kind,
            port,
            synthetic,
        });
        id
    }

    /// Adds a primitive RTL node driving `output`.
    pub fn add_rtl_node(
        &mut self,
        op: RtlOp,
        inputs: Vec<SignalId>,
        output: SignalId,
    ) -> RtlNodeId {
        let id = RtlNodeId::from_index(self.rtl_nodes.len());
        self.rtl_nodes.push(RtlNode { op, inputs, output });
        id
    }

    /// Adds a behavioral node (an `always` block).
    pub fn add_behavioral(
        &mut self,
        name: impl Into<String>,
        sensitivity: Sensitivity,
        body: Stmt,
    ) -> BehavioralId {
        let id = BehavioralId::from_index(self.behavioral.len());
        self.behavioral.push((name.into(), sensitivity, body));
        id
    }

    /// Width of an already-registered signal (builder-time helper for
    /// elaboration).
    pub fn signal_width(&self, id: SignalId) -> u32 {
        self.signals[id.index()].width
    }

    /// Kind of an already-registered signal (builder-time helper for
    /// elaboration).
    pub fn signal_kind(&self, id: SignalId) -> SignalKind {
        self.signals[id.index()].kind
    }

    /// Looks up an already-registered signal by name (builder-time helper
    /// for importers that must avoid duplicate registrations).
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.name_index.get(name).copied()
    }

    /// Validates and finalizes the design: computes drivers, fanout maps,
    /// behavioral read/write sets, VDGs, and the levelized combinational
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for multiple drivers, driven inputs, RTL
    /// node width/arity mismatches, duplicate names, or combinational
    /// cycles.
    pub fn finish(self) -> Result<Design, BuildError> {
        let DesignBuilder {
            name,
            signals,
            rtl_nodes,
            behavioral: raw_beh,
            name_index,
            duplicate,
        } = self;

        if let Some(name) = duplicate {
            return Err(BuildError::DuplicateName { name });
        }

        let n_sig = signals.len();
        let mut drivers: Vec<Option<Driver>> = vec![None; n_sig];

        // Inputs are driven by the environment.
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (i, sig) in signals.iter().enumerate() {
            match sig.port {
                Some(PortDir::Input) => {
                    drivers[i] = Some(Driver::Input);
                    inputs.push(SignalId::from_index(i));
                }
                Some(PortDir::Output) => outputs.push(SignalId::from_index(i)),
                None => {}
            }
        }

        // RTL node drivers + width/arity checks.
        for (ni, node) in rtl_nodes.iter().enumerate() {
            let nid = RtlNodeId::from_index(ni);
            let out = node.output.index();
            let sig_name = || signals[out].name.clone();
            if signals[out].port == Some(PortDir::Input) {
                return Err(BuildError::DrivenInput { signal: sig_name() });
            }
            if drivers[out].is_some() {
                return Err(BuildError::MultipleDrivers { signal: sig_name() });
            }
            drivers[out] = Some(Driver::Rtl(nid));
            let widths: Vec<u32> = node
                .inputs
                .iter()
                .map(|s| signals[s.index()].width)
                .collect();
            match rtl_output_width(&node.op, &widths) {
                Some(w) => {
                    // Buf tolerates width mismatch (port-connection resize).
                    if w != signals[out].width && !matches!(node.op, RtlOp::Buf) {
                        return Err(BuildError::WidthMismatch {
                            signal: sig_name(),
                            expected: w,
                            actual: signals[out].width,
                        });
                    }
                }
                None => return Err(BuildError::BadArity { signal: sig_name() }),
            }
        }

        // Behavioral nodes: analyses + drivers.
        let mut behavioral = Vec::with_capacity(raw_beh.len());
        for (bi, (bname, sensitivity, mut body)) in raw_beh.into_iter().enumerate() {
            let bid = BehavioralId::from_index(bi);
            let mut reads = Vec::new();
            body.collect_reads(&mut reads);
            reads.sort_unstable();
            reads.dedup();
            let mut writes = Vec::new();
            body.collect_writes(&mut writes);
            writes.sort_unstable();
            writes.dedup();
            for &w in &writes {
                let sig_name = || signals[w.index()].name.clone();
                if signals[w.index()].port == Some(PortDir::Input) {
                    return Err(BuildError::DrivenInput { signal: sig_name() });
                }
                match drivers[w.index()] {
                    None => drivers[w.index()] = Some(Driver::Behavioral(bid)),
                    Some(Driver::Behavioral(other)) if other == bid => {}
                    Some(_) => return Err(BuildError::MultipleDrivers { signal: sig_name() }),
                }
            }
            let vdg = Vdg::build(&mut body);
            behavioral.push(BehavioralNode {
                name: bname,
                sensitivity,
                body,
                reads,
                writes,
                vdg,
            });
        }

        // Fanout maps.
        let mut rtl_fanout: Vec<Vec<RtlNodeId>> = vec![Vec::new(); n_sig];
        for (ni, node) in rtl_nodes.iter().enumerate() {
            let nid = RtlNodeId::from_index(ni);
            let mut seen = Vec::new();
            for &inp in &node.inputs {
                if !seen.contains(&inp) {
                    seen.push(inp);
                    rtl_fanout[inp.index()].push(nid);
                }
            }
        }
        let mut level_fanout: Vec<Vec<BehavioralId>> = vec![Vec::new(); n_sig];
        let mut edge_fanout: Vec<Vec<BehavioralId>> = vec![Vec::new(); n_sig];
        for (bi, node) in behavioral.iter().enumerate() {
            let bid = BehavioralId::from_index(bi);
            match &node.sensitivity {
                Sensitivity::Edges(edges) => {
                    let mut seen = Vec::new();
                    for &(_, s) in edges {
                        if !seen.contains(&s) {
                            seen.push(s);
                            edge_fanout[s.index()].push(bid);
                        }
                    }
                }
                Sensitivity::Level(sigs) => {
                    for &s in sigs {
                        if !level_fanout[s.index()].contains(&bid) {
                            level_fanout[s.index()].push(bid);
                        }
                    }
                }
                Sensitivity::Star => {
                    for &s in &node.reads {
                        level_fanout[s.index()].push(bid);
                    }
                }
            }
        }

        let comb_order = levelize(&signals, &rtl_nodes, &behavioral, &drivers)?;
        let mut rtl_rank = vec![0u32; rtl_nodes.len()];
        let mut beh_rank = vec![NO_RANK; behavioral.len()];
        for (rank, item) in comb_order.iter().enumerate() {
            match *item {
                CombItem::Rtl(id) => rtl_rank[id.index()] = rank as u32,
                CombItem::Beh(id) => beh_rank[id.index()] = rank as u32,
            }
        }

        Ok(Design {
            name,
            signals,
            rtl_nodes,
            behavioral,
            inputs,
            outputs,
            drivers,
            rtl_fanout,
            level_fanout,
            edge_fanout,
            comb_order,
            rtl_rank,
            beh_rank,
            name_index,
        })
    }
}

/// Topologically orders the combinational items (RTL nodes plus
/// level-sensitive behavioral nodes). Sequential behavioral nodes cut the
/// graph. Errors on combinational cycles.
fn levelize(
    signals: &[Signal],
    rtl_nodes: &[RtlNode],
    behavioral: &[BehavioralNode],
    _drivers: &[Option<Driver>],
) -> Result<Vec<CombItem>, BuildError> {
    // Item index space: RTL nodes first, then comb behavioral nodes.
    let comb_beh: Vec<usize> = behavioral
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.sensitivity.is_edge())
        .map(|(i, _)| i)
        .collect();
    let n_items = rtl_nodes.len() + comb_beh.len();

    // Map: signal -> producing item (if combinational).
    let mut producer: Vec<Option<usize>> = vec![None; signals.len()];
    for (ni, node) in rtl_nodes.iter().enumerate() {
        producer[node.output.index()] = Some(ni);
    }
    for (k, &bi) in comb_beh.iter().enumerate() {
        for &w in &behavioral[bi].writes {
            producer[w.index()] = Some(rtl_nodes.len() + k);
        }
    }

    // Dependency edges: item -> items producing its inputs.
    let item_inputs = |item: usize| -> Vec<SignalId> {
        if item < rtl_nodes.len() {
            rtl_nodes[item].inputs.clone()
        } else {
            let bi = comb_beh[item - rtl_nodes.len()];
            // A comb behavioral node's inputs are its activation reads; the
            // write targets it also reads (e.g. a blocking temp) do not form
            // real cycles, so exclude self-produced signals.
            behavioral[bi]
                .reads
                .iter()
                .copied()
                .filter(|s| !behavioral[bi].writes.contains(s))
                .collect()
        }
    };

    // Kahn's algorithm.
    let mut indegree = vec![0usize; n_items];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_items];
    for (item, deg) in indegree.iter_mut().enumerate() {
        for sig in item_inputs(item) {
            if let Some(p) = producer[sig.index()] {
                if p != item {
                    dependents[p].push(item);
                    *deg += 1;
                }
            }
        }
    }
    let mut queue: Vec<usize> = (0..n_items).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n_items);
    while let Some(item) = queue.pop() {
        order.push(item);
        for &d in &dependents[item] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    if order.len() != n_items {
        // Find a signal on the cycle for the error message.
        let stuck = (0..n_items).find(|&i| indegree[i] > 0).expect("cycle item");
        let sig = if stuck < rtl_nodes.len() {
            rtl_nodes[stuck].output
        } else {
            behavioral[comb_beh[stuck - rtl_nodes.len()]].writes[0]
        };
        return Err(BuildError::CombinationalCycle {
            signal: signals[sig.index()].name.clone(),
        });
    }
    Ok(order
        .into_iter()
        .map(|i| {
            if i < rtl_nodes.len() {
                CombItem::Rtl(RtlNodeId::from_index(i))
            } else {
                CombItem::Beh(BehavioralId::from_index(comb_beh[i - rtl_nodes.len()]))
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, Expr};
    use crate::node::EdgeKind;

    fn tiny() -> DesignBuilder {
        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 4, PortDir::Input);
        let c = b.add_port("c", 4, PortDir::Input);
        let d = b.add_signal("d", 4, SignalKind::Wire);
        b.add_rtl_node(RtlOp::Binary(BinaryOp::And), vec![a, c], d);
        b
    }

    #[test]
    fn build_tiny() {
        let d = tiny().finish().unwrap();
        assert_eq!(d.num_signals(), 3);
        assert_eq!(d.inputs().len(), 2);
        assert_eq!(d.comb_order().len(), 1);
        let a = d.find_signal("a").unwrap();
        assert_eq!(d.rtl_fanout(a).len(), 1);
        assert_eq!(d.driver(a), Some(Driver::Input));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = tiny();
        let a = b.name_index["a"];
        let c = b.name_index["c"];
        let d = b.name_index["d"];
        b.add_rtl_node(RtlOp::Binary(BinaryOp::Or), vec![a, c], d);
        assert!(matches!(
            b.finish(),
            Err(BuildError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn driven_input_rejected() {
        let mut b = tiny();
        let a = b.name_index["a"];
        let c = b.name_index["c"];
        b.add_rtl_node(RtlOp::Buf, vec![c], a);
        assert!(matches!(b.finish(), Err(BuildError::DrivenInput { .. })));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 4, PortDir::Input);
        let c = b.add_port("c", 4, PortDir::Input);
        let d = b.add_signal("d", 8, SignalKind::Wire);
        b.add_rtl_node(RtlOp::Binary(BinaryOp::And), vec![a, c], d);
        assert!(matches!(b.finish(), Err(BuildError::WidthMismatch { .. })));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = DesignBuilder::new("t");
        b.add_port("a", 4, PortDir::Input);
        b.add_port("a", 4, PortDir::Input);
        assert!(matches!(b.finish(), Err(BuildError::DuplicateName { .. })));
    }

    #[test]
    fn comb_cycle_rejected() {
        let mut b = DesignBuilder::new("t");
        let x = b.add_signal("x", 1, SignalKind::Wire);
        let y = b.add_signal("y", 1, SignalKind::Wire);
        b.add_rtl_node(RtlOp::Unary(crate::expr::UnaryOp::Not), vec![x], y);
        b.add_rtl_node(RtlOp::Unary(crate::expr::UnaryOp::Not), vec![y], x);
        assert!(matches!(
            b.finish(),
            Err(BuildError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn sequential_node_cuts_cycles() {
        // q feeds back through a flop: not a combinational cycle.
        let mut b = DesignBuilder::new("t");
        let clk = b.add_port("clk", 1, PortDir::Input);
        let q = b.add_signal("q", 1, SignalKind::Reg);
        let nq = b.add_signal("nq", 1, SignalKind::Wire);
        b.add_rtl_node(RtlOp::Unary(crate::expr::UnaryOp::Not), vec![q], nq);
        b.add_behavioral(
            "ff",
            Sensitivity::Edges(vec![(EdgeKind::Pos, clk)]),
            Stmt::assign(q, Expr::sig(nq), false),
        );
        let d = b.finish().unwrap();
        assert_eq!(d.comb_order().len(), 1);
        assert_eq!(d.edge_fanout(clk).len(), 1);
        assert_eq!(d.beh_rank(BehavioralId(0)), None);
    }

    #[test]
    fn levelized_order_respects_deps() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 1, PortDir::Input);
        let x = b.add_signal("x", 1, SignalKind::Wire);
        let y = b.add_signal("y", 1, SignalKind::Wire);
        // y depends on x; x depends on a. Insert y's node first.
        let ny = b.add_rtl_node(RtlOp::Unary(crate::expr::UnaryOp::Not), vec![x], y);
        let nx = b.add_rtl_node(RtlOp::Unary(crate::expr::UnaryOp::Not), vec![a], x);
        let d = b.finish().unwrap();
        let order = d.comb_order();
        let pos = |id: RtlNodeId| order.iter().position(|i| *i == CombItem::Rtl(id)).unwrap();
        assert!(pos(nx) < pos(ny));
        // An item's rank is its position in `comb_order`.
        for id in [nx, ny] {
            assert_eq!(d.rtl_rank(id), pos(id));
        }
        assert!(d.rtl_rank(nx) < d.rtl_rank(ny));
    }

    #[test]
    fn star_sensitivity_infers_reads() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 1, PortDir::Input);
        let c = b.add_port("c", 1, PortDir::Input);
        let q = b.add_signal("q", 1, SignalKind::Reg);
        b.add_behavioral(
            "comb",
            Sensitivity::Star,
            Stmt::assign(
                q,
                Expr::bin(BinaryOp::And, Expr::sig(a), Expr::sig(c)),
                true,
            ),
        );
        let d = b.finish().unwrap();
        assert_eq!(d.level_fanout(a), &[BehavioralId(0)]);
        assert_eq!(d.level_fanout(c), &[BehavioralId(0)]);
        let node = d.behavioral(BehavioralId(0));
        assert_eq!(node.reads, vec![a, c]);
        assert_eq!(node.writes, vec![q]);
        assert_eq!(node.vdg.segments.len(), 1);
        assert_eq!(d.beh_rank(BehavioralId(0)), Some(0));
    }
}
