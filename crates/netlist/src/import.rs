//! Yosys-JSON → [`Design`] importer.
//!
//! Maps the word-level cells `$and $or $xor $xnor $not $buf $pos $neg
//! $mux $eq $ne $lt $le $gt $ge $add $sub $mul $div $mod $shl $sshl $shr
//! $sshr $reduce_and $reduce_or $reduce_xor $reduce_xnor $reduce_bool
//! $logic_and $logic_or $logic_not $dff $dffe $adff $sdff` and the
//! simple-gate library `$_AND_ $_OR_ $_XOR_ $_XNOR_ $_NAND_ $_NOR_ $_NOT_
//! $_BUF_ $_MUX_ $_DFF_P_ $_DFF_N_` onto the existing `DesignBuilder` RTL
//! nodes. Any other cell type is an error naming the cell, its type and
//! its output net; a netlist that instantiates one of its own modules is
//! rejected with a hint to `flatten` it first. Multi-bit buses are reassembled
//! from Yosys's bit-indexed connection lists: maximal runs of consecutive
//! bits become `Slice`/`Buf` nodes, mixed runs become `Concat`, constant
//! chunks become `Const` drivers, and repeated sign bits become
//! `Replicate` — so a netlist round-trips into the same node vocabulary
//! the Verilog frontend emits.
//!
//! Named nets (Yosys `netnames` with `hide_name == 0`) become fault
//! injection sites: every such net materializes as a named signal and all
//! readers are routed through it, which is what gives gate-level netlists
//! the per-gate-output fault universe a structural fault model expects.
//!
//! Flops become *register banks*: every flop cell with the same
//! sensitivity list (clock and edge, plus the asynchronous reset and its
//! edge for `$adff`) joins one edge-triggered behavioral node, whose body
//! is the cells' bodies in cell order — a `$dffe` enable or `$sdff` reset
//! stays a per-cell `if` inside it. So a clock edge on a gate netlist is
//! one activation and one NBA block, as for the `always` block a designer
//! would have written, not one per flop; a one-cell bank is the cell's own
//! node. Signal and fault ids do not depend on the banking. The analyses
//! that work per behavioral node (the read set, the influence adjacency of
//! `eraser_ir::analysis`) see a bank as one node, so every D input of a
//! bank reaches every Q: conservative, never unsound.

use crate::json::{self, JsonValue};
use eraser_ir::{
    BinaryOp, Design, DesignBuilder, EdgeKind, Expr, PortDir, RtlOp, Sensitivity, SignalId,
    SignalKind, Stmt, UnaryOp,
};
use eraser_logic::{LogicBit, LogicVec};
use std::collections::HashMap;
use std::fmt;

/// An import failure: bad JSON, an unsupported construct, or a netlist
/// inconsistency. `location` is a 1-based (line, column) when the failure
/// is a JSON syntax error.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportError {
    /// 1-based (line, column) for syntax-level failures.
    pub location: Option<(u32, u32)>,
    /// Human-readable description naming the cell/net involved.
    pub message: String,
}

impl ImportError {
    fn new(message: impl Into<String>) -> Self {
        ImportError {
            location: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.location {
            Some((line, col)) => write!(f, "line {line}:{col}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ImportError {}

/// Imports a Yosys JSON document (the output of `yosys -p 'prep;
/// write_json out.json'`). `top` selects the module to import; when
/// `None`, the module carrying the `top` attribute (or the only module)
/// is used.
///
/// # Errors
///
/// Returns an [`ImportError`] for JSON syntax errors (with line/column),
/// unsupported cells (naming the cell and its output net), hierarchical
/// netlists, multiply-driven or undriven nets, and malformed documents.
pub fn import_str(text: &str, top: Option<&str>) -> Result<Design, ImportError> {
    let root = json::parse(text).map_err(|e| ImportError {
        location: Some((e.line, e.col)),
        message: format!("JSON syntax error: {}", e.message),
    })?;
    let modules = root
        .get("modules")
        .and_then(|m| m.as_obj())
        .ok_or_else(|| {
            ImportError::new(
                "document has no `modules` object — is this `yosys write_json` output?",
            )
        })?;
    if modules.is_empty() {
        return Err(ImportError::new("document contains no modules"));
    }
    let (name, module) = select_top(modules, top)?;
    Importer::new(name, module).run()
}

fn select_top<'a>(
    modules: &'a [(String, JsonValue)],
    top: Option<&str>,
) -> Result<(&'a str, &'a JsonValue), ImportError> {
    let truthy = |v: Option<&JsonValue>| match v {
        Some(JsonValue::Num(n)) => *n != 0.0,
        Some(JsonValue::Str(s)) => s.contains('1'),
        _ => false,
    };
    if let Some(want) = top {
        return modules
            .iter()
            .find(|(n, _)| n == want)
            .map(|(n, m)| (n.as_str(), m))
            .ok_or_else(|| {
                ImportError::new(format!(
                    "no module named `{want}`; document contains: {}",
                    module_list(modules)
                ))
            });
    }
    let flagged: Vec<&(String, JsonValue)> = modules
        .iter()
        .filter(|(_, m)| truthy(m.get("attributes").and_then(|a| a.get("top"))))
        .collect();
    match (flagged.len(), modules.len()) {
        (1, _) => Ok((flagged[0].0.as_str(), &flagged[0].1)),
        (_, 1) => Ok((modules[0].0.as_str(), &modules[0].1)),
        _ => Err(ImportError::new(format!(
            "cannot choose a top module (none marked with the `top` attribute); \
             specify one of: {}",
            module_list(modules)
        ))),
    }
}

fn module_list(modules: &[(String, JsonValue)]) -> String {
    modules
        .iter()
        .map(|(n, _)| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Where one Yosys bit-id gets its value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BitSource {
    /// Bit `bit` of signal `sig`.
    Ref { sig: SignalId, bit: u32 },
    /// A constant bit (`"0"`, `"1"`, `"x"`, `"z"` in the bits list).
    Const(LogicBit),
}

/// A maximal homogeneous chunk of a reassembled bus (LSB-first).
#[derive(Debug)]
enum Run {
    /// Consecutive ascending bits `lo..=hi` of one signal.
    Seq { sig: SignalId, lo: u32, hi: u32 },
    /// One bit of a signal repeated `n` times (sign extension).
    Rep { sig: SignalId, bit: u32, n: u32 },
    /// A literal chunk.
    Lit(Vec<LogicBit>),
}

struct Importer<'a> {
    module_name: &'a str,
    module: &'a JsonValue,
    b: DesignBuilder,
    /// Yosys bit-id → current source (readers resolve through this; named
    /// net aliases remap entries so reads go through the faultable signal).
    bits: HashMap<u64, BitSource>,
    /// Yosys bit-id → name of the port/cell driving it (driver conflicts).
    driver_of: HashMap<u64, String>,
    /// Cell name → the signal its output drives.
    out_sigs: HashMap<&'a str, SignalId>,
    port_names: Vec<&'a str>,
    /// `(name, bits, hidden)` from `netnames`.
    netnames: Vec<(&'a str, &'a [JsonValue], bool)>,
    temp_counter: u32,
    /// The register banks: one per distinct flop sensitivity list, in
    /// order of first appearance, holding its first cell's name and its
    /// cells' bodies in cell order.
    banks: Vec<(String, Sensitivity, Vec<Stmt>)>,
}

const EMPTY_OBJ: &[(String, JsonValue)] = &[];

fn obj_of(v: Option<&JsonValue>) -> &[(String, JsonValue)] {
    v.and_then(|v| v.as_obj()).unwrap_or(EMPTY_OBJ)
}

impl<'a> Importer<'a> {
    fn new(module_name: &'a str, module: &'a JsonValue) -> Self {
        Importer {
            module_name,
            module,
            b: DesignBuilder::new(module_name),
            bits: HashMap::new(),
            driver_of: HashMap::new(),
            out_sigs: HashMap::new(),
            port_names: Vec::new(),
            netnames: Vec::new(),
            temp_counter: 0,
            banks: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Design, ImportError> {
        for (name, net) in obj_of(self.module.get("netnames")) {
            let bits = net
                .get("bits")
                .and_then(|b| b.as_arr())
                .ok_or_else(|| self.merr(format!("netname `{name}` has no `bits` list")))?;
            let hidden = matches!(net.get("hide_name"), Some(JsonValue::Num(n)) if *n != 0.0);
            self.netnames.push((name.as_str(), bits, hidden));
        }
        let deferred_outputs = self.declare_ports()?;
        self.declare_cell_outputs()?;
        self.alias_named_nets()?;
        self.emit_cells()?;
        self.emit_banks();
        for (name, bits) in deferred_outputs {
            let sources = self.resolve(bits, &format!("output port `{name}`"))?;
            let port = self.b.add_port(name, bits.len() as u32, PortDir::Output);
            self.drive_from_sources(&sources, port);
        }
        let module_name = self.module_name;
        self.b
            .finish()
            .map_err(|e| ImportError::new(format!("module `{module_name}` did not elaborate: {e}")))
    }

    fn merr(&self, msg: impl fmt::Display) -> ImportError {
        ImportError::new(format!("module `{}`: {msg}", self.module_name))
    }

    /// Best-effort name for the net a bit-id belongs to, for diagnostics.
    fn net_label(&self, id: u64) -> String {
        for (name, bits, hidden) in &self.netnames {
            if *hidden {
                continue;
            }
            if let Some(i) = bits.iter().position(|b| b.as_u64() == Some(id)) {
                return if bits.len() == 1 {
                    format!("`{name}`")
                } else {
                    format!("`{name}[{i}]`")
                };
            }
        }
        format!("`$net{id}`")
    }

    fn temp(&mut self, width: u32) -> SignalId {
        self.temp_counter += 1;
        self.b.add_temp(format!("$nl${}", self.temp_counter), width)
    }

    /// Phase A: input ports become primary-input signals and map their
    /// bits; output ports are deferred until everything else is driven.
    fn declare_ports(&mut self) -> Result<Vec<(&'a str, &'a [JsonValue])>, ImportError> {
        let mut deferred = Vec::new();
        for (name, port) in obj_of(self.module.get("ports")) {
            self.port_names.push(name.as_str());
            let dir = port.get("direction").and_then(|d| d.as_str()).unwrap_or("");
            let bits = port
                .get("bits")
                .and_then(|b| b.as_arr())
                .ok_or_else(|| self.merr(format!("port `{name}` has no `bits` list")))?;
            if bits.is_empty() {
                return Err(self.merr(format!("port `{name}` is zero bits wide")));
            }
            match dir {
                "input" => {
                    let sig = self.b.add_port(name, bits.len() as u32, PortDir::Input);
                    for (i, bit) in bits.iter().enumerate() {
                        let id = bit.as_u64().ok_or_else(|| {
                            self.merr(format!(
                                "input port `{name}` bit {i} is a constant, not a net"
                            ))
                        })?;
                        self.claim(id, format!("input port `{name}`"))?;
                        self.bits.insert(id, BitSource::Ref { sig, bit: i as u32 });
                    }
                }
                "output" => deferred.push((name.as_str(), bits)),
                other => {
                    return Err(self.merr(format!(
                        "port `{name}` has unsupported direction `{other}` \
                         (only input/output)"
                    )))
                }
            }
        }
        Ok(deferred)
    }

    fn claim(&mut self, id: u64, driver: String) -> Result<(), ImportError> {
        if let Some(prev) = self.driver_of.get(&id) {
            return Err(self.merr(format!(
                "net {} has multiple drivers: {prev} and {driver}",
                self.net_label(id)
            )));
        }
        self.driver_of.insert(id, driver);
        Ok(())
    }

    /// Phase B: every cell output gets its signal up front (named after an
    /// exactly-matching visible net when one exists, synthetic otherwise),
    /// so cell inputs can resolve in any order in phase D.
    fn declare_cell_outputs(&mut self) -> Result<(), ImportError> {
        // Cheap copy (the tuples are Copy refs into the document) so the
        // name search below doesn't hold a borrow of `self`.
        let netnames = self.netnames.clone();
        let mut used_names: Vec<&str> = Vec::new();
        for (cell_name, cell) in obj_of(self.module.get("cells")) {
            let ty = cell
                .get("type")
                .and_then(|t| t.as_str())
                .ok_or_else(|| self.merr(format!("cell `{cell_name}` has no type")))?;
            let out_port = match output_port_of(ty) {
                Some(p) => p,
                None => return Err(self.unsupported_cell(cell_name, ty, cell)),
            };
            let out_bits = self.conn(cell, cell_name, out_port)?;
            let width = out_bits.len() as u32;
            let kind = if is_dff(ty) {
                SignalKind::Reg
            } else {
                SignalKind::Wire
            };
            // A visible netname that is exactly this output (and is not a
            // port) names the signal — and makes it a fault site.
            let matching = netnames.iter().find(|&&(n, bits, hidden)| {
                !hidden
                    && bits == out_bits
                    && !self.port_names.contains(&n)
                    && !used_names.contains(&n)
            });
            let sig = match matching {
                Some(&(n, _, _)) => {
                    used_names.push(n);
                    self.b.add_signal(n, width, kind)
                }
                None => self.b.add_signal_full(
                    format!("{cell_name}${out_port}"),
                    width,
                    kind,
                    None,
                    true,
                ),
            };
            for (i, bit) in out_bits.iter().enumerate() {
                let id = bit.as_u64().ok_or_else(|| {
                    self.merr(format!(
                        "cell `{cell_name}` output `{out_port}` bit {i} is a constant"
                    ))
                })?;
                self.claim(id, format!("cell `{cell_name}`"))?;
                self.bits.insert(id, BitSource::Ref { sig, bit: i as u32 });
            }
            self.out_sigs.insert(cell_name.as_str(), sig);
        }
        Ok(())
    }

    fn unsupported_cell(&self, cell_name: &str, ty: &str, cell: &JsonValue) -> ImportError {
        // Find any output connection so the message can name the net.
        let mut net = String::from("<unknown net>");
        let dirs = obj_of(cell.get("port_directions"));
        for (port, d) in dirs {
            if d.as_str() == Some("output") {
                if let Some(bits) = cell.get("connections").and_then(|c| c.get(port)) {
                    if let Some(first) = bits.as_arr().and_then(|b| b.first()) {
                        if let Some(id) = first.as_u64() {
                            net = self.net_label(id);
                        }
                    }
                }
                break;
            }
        }
        if !ty.starts_with('$') {
            return self.merr(format!(
                "cell `{cell_name}` instantiates submodule `{ty}` (output net {net}); \
                 hierarchical netlists are not supported — flatten first with \
                 `yosys -p 'prep; flatten; write_json'`"
            ));
        }
        self.merr(format!(
            "cell `{cell_name}` has unsupported type `{ty}` (output net {net}); \
             supported cells: word-level $buf/$not/$neg/$and/$or/$xor/$xnor/$add/$sub/\
             $mul/$div/$mod/$shl/$shr/$sshr/$mux/$eq/$ne/$lt/$le/$gt/$ge/$reduce_*/\
             $logic_*/$dff/$dffe/$adff/$sdff and the simple-gate library"
        ))
    }

    /// Phase C: visible multi-cell nets become named alias wires, and the
    /// bit map is redirected through them so readers (and faults) see the
    /// named net.
    fn alias_named_nets(&mut self) -> Result<(), ImportError> {
        let netnames = self.netnames.clone();
        for &(name, bits, hidden) in &netnames {
            if hidden || self.port_names.contains(&name) || bits.is_empty() {
                continue;
            }
            if self.b.find_signal(name).is_some() {
                continue; // already the name of a cell output
            }
            // Skip nets with undriven bits: if a cell actually reads one,
            // phase D reports it against that cell.
            let Some(sources) = self.try_resolve(bits) else {
                continue;
            };
            if let [BitSource::Ref { sig, bit: 0 }, ..] = sources[..] {
                let whole = sources.len() as u32 == self.b.signal_width(sig)
                    && sources
                        .iter()
                        .enumerate()
                        .all(|(i, s)| *s == BitSource::Ref { sig, bit: i as u32 });
                if whole {
                    continue; // exactly an existing signal; nothing to add
                }
            }
            let mut drivers: Vec<SignalId> = Vec::new();
            for s in &sources {
                if let BitSource::Ref { sig, .. } = *s {
                    if !drivers.contains(&sig) {
                        drivers.push(sig);
                    }
                }
            }
            if drivers.len() <= 1 {
                // All bits come from one driver (or constants): a whole-bus
                // alias adds no dependence edges beyond that driver.
                let alias = self.b.add_signal(name, bits.len() as u32, SignalKind::Wire);
                self.drive_from_sources(&sources, alias);
                for (i, bit) in bits.iter().enumerate() {
                    if let Some(id) = bit.as_u64() {
                        self.bits.insert(
                            id,
                            BitSource::Ref {
                                sig: alias,
                                bit: i as u32,
                            },
                        );
                    }
                }
            } else {
                // A collector net (bits from several cells). Aliasing it as
                // one bus would make every per-bit reader depend on every
                // driver — a named ripple-carry bus would then read as a
                // combinational cycle. Alias bit by bit instead; each bit
                // stays individually named (and faultable).
                for (i, (src, bit)) in sources.iter().zip(bits).enumerate() {
                    let BitSource::Ref { sig, bit: sb } = *src else {
                        continue;
                    };
                    let alias = self
                        .b
                        .add_signal(format!("{name}[{i}]"), 1, SignalKind::Wire);
                    if self.b.signal_width(sig) == 1 && sb == 0 {
                        self.b.add_rtl_node(RtlOp::Buf, vec![sig], alias);
                    } else {
                        self.b
                            .add_rtl_node(RtlOp::Slice { hi: sb, lo: sb }, vec![sig], alias);
                    }
                    if let Some(id) = bit.as_u64() {
                        self.bits.insert(id, BitSource::Ref { sig: alias, bit: 0 });
                    }
                }
            }
        }
        Ok(())
    }

    fn try_resolve(&self, bits: &[JsonValue]) -> Option<Vec<BitSource>> {
        bits.iter()
            .map(|b| match b {
                JsonValue::Num(_) => self.bits.get(&b.as_u64()?).copied(),
                JsonValue::Str(s) => const_bit(s).map(BitSource::Const),
                _ => None,
            })
            .collect()
    }

    fn resolve(&self, bits: &[JsonValue], reader: &str) -> Result<Vec<BitSource>, ImportError> {
        bits.iter()
            .map(|b| match b {
                JsonValue::Num(_) => {
                    let id = b
                        .as_u64()
                        .ok_or_else(|| self.merr(format!("{reader} reads a non-integer net id")))?;
                    self.bits.get(&id).copied().ok_or_else(|| {
                        self.merr(format!(
                            "{reader} reads net {} which has no driver",
                            self.net_label(id)
                        ))
                    })
                }
                JsonValue::Str(s) => const_bit(s)
                    .map(BitSource::Const)
                    .ok_or_else(|| self.merr(format!("{reader} reads invalid constant bit `{s}`"))),
                _ => Err(self.merr(format!("{reader} has a malformed bits list"))),
            })
            .collect()
    }

    fn conn<'c>(
        &self,
        cell: &'c JsonValue,
        cell_name: &str,
        port: &str,
    ) -> Result<&'c [JsonValue], ImportError> {
        cell.get("connections")
            .and_then(|c| c.get(port))
            .and_then(|b| b.as_arr())
            .ok_or_else(|| {
                self.merr(format!(
                    "cell `{cell_name}` has no connection for port `{port}`"
                ))
            })
    }

    // ----- bus reassembly -------------------------------------------------

    fn group_runs(&self, sources: &[BitSource]) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        for &src in sources {
            enum Act {
                Push,
                ExtSeq,
                ExtLit,
                ExtRep,
                ToRep,
            }
            let act = match (runs.last(), src) {
                (Some(Run::Lit(_)), BitSource::Const(_)) => Act::ExtLit,
                (Some(&Run::Seq { sig, lo, hi }), BitSource::Ref { sig: s2, bit })
                    if sig == s2 && lo == hi && bit == hi =>
                {
                    Act::ToRep
                }
                (Some(&Run::Seq { sig, hi, .. }), BitSource::Ref { sig: s2, bit })
                    if sig == s2 && bit == hi + 1 =>
                {
                    Act::ExtSeq
                }
                (Some(&Run::Rep { sig, bit, .. }), BitSource::Ref { sig: s2, bit: b2 })
                    if sig == s2 && bit == b2 =>
                {
                    Act::ExtRep
                }
                _ => Act::Push,
            };
            match (act, src) {
                (Act::ExtLit, BitSource::Const(c)) => {
                    if let Some(Run::Lit(v)) = runs.last_mut() {
                        v.push(c);
                    }
                }
                (Act::ExtSeq, _) => {
                    if let Some(Run::Seq { hi, .. }) = runs.last_mut() {
                        *hi += 1;
                    }
                }
                (Act::ExtRep, _) => {
                    if let Some(Run::Rep { n, .. }) = runs.last_mut() {
                        *n += 1;
                    }
                }
                (Act::ToRep, BitSource::Ref { sig, bit }) => {
                    *runs.last_mut().expect("run exists") = Run::Rep { sig, bit, n: 2 };
                }
                (_, BitSource::Const(c)) => runs.push(Run::Lit(vec![c])),
                (_, BitSource::Ref { sig, bit }) => runs.push(Run::Seq {
                    sig,
                    lo: bit,
                    hi: bit,
                }),
            }
        }
        runs
    }

    /// A signal carrying `run`'s bits, creating slice/const/replicate
    /// temps as needed.
    fn run_signal(&mut self, run: &Run) -> SignalId {
        match *run {
            Run::Seq { sig, lo, hi } => {
                if lo == 0 && hi + 1 == self.b.signal_width(sig) {
                    sig
                } else {
                    let t = self.temp(hi - lo + 1);
                    self.b.add_rtl_node(RtlOp::Slice { hi, lo }, vec![sig], t);
                    t
                }
            }
            Run::Rep { sig, bit, n } => {
                let one = self.bit_of(sig, bit);
                let t = self.temp(n);
                self.b.add_rtl_node(RtlOp::Replicate(n), vec![one], t);
                t
            }
            Run::Lit(ref bits) => {
                let t = self.temp(bits.len() as u32);
                self.b
                    .add_rtl_node(RtlOp::Const(LogicVec::from_bits(bits)), vec![], t);
                t
            }
        }
    }

    fn bit_of(&mut self, sig: SignalId, bit: u32) -> SignalId {
        if self.b.signal_width(sig) == 1 && bit == 0 {
            sig
        } else {
            let t = self.temp(1);
            self.b
                .add_rtl_node(RtlOp::Slice { hi: bit, lo: bit }, vec![sig], t);
            t
        }
    }

    /// Emits nodes so `out` carries `sources` (LSB-first). A single run
    /// drives `out` directly; mixed runs concatenate (MSB-first inputs).
    fn drive_from_sources(&mut self, sources: &[BitSource], out: SignalId) {
        let runs = self.group_runs(sources);
        if runs.len() == 1 {
            match runs[0] {
                Run::Seq { sig, lo, hi } => {
                    if lo == 0 && hi + 1 == self.b.signal_width(sig) {
                        self.b.add_rtl_node(RtlOp::Buf, vec![sig], out);
                    } else {
                        self.b.add_rtl_node(RtlOp::Slice { hi, lo }, vec![sig], out);
                    }
                }
                Run::Rep { sig, bit, n } => {
                    let one = self.bit_of(sig, bit);
                    self.b.add_rtl_node(RtlOp::Replicate(n), vec![one], out);
                }
                Run::Lit(ref bits) => {
                    self.b
                        .add_rtl_node(RtlOp::Const(LogicVec::from_bits(bits)), vec![], out);
                }
            }
            return;
        }
        let mut parts: Vec<SignalId> = runs.iter().map(|r| self.run_signal(r)).collect();
        parts.reverse(); // Concat inputs are MSB-first; runs are LSB-first.
        self.b.add_rtl_node(RtlOp::Concat, parts, out);
    }

    /// A signal carrying `sources`, reusing an existing signal when the
    /// sources are exactly it.
    fn assemble(&mut self, sources: &[BitSource]) -> SignalId {
        if let [BitSource::Ref { sig, bit: 0 }] = sources[..] {
            if self.b.signal_width(sig) == 1 {
                return sig;
            }
        }
        let runs = self.group_runs(sources);
        if let [Run::Seq { sig, lo: 0, hi }] = runs[..] {
            if hi + 1 == self.b.signal_width(sig) {
                return sig;
            }
        }
        let t = self.temp(sources.len() as u32);
        self.drive_from_sources(sources, t);
        t
    }

    /// Truncates or extends `sources` to `width` bits; `signed` extends
    /// by repeating the MSB source, unsigned pads with zero.
    fn extend(&self, mut sources: Vec<BitSource>, width: u32, signed: bool) -> Vec<BitSource> {
        let width = width as usize;
        if sources.len() > width {
            sources.truncate(width);
        }
        let pad = match (signed, sources.last()) {
            (true, Some(&s)) => s,
            _ => BitSource::Const(LogicBit::Zero),
        };
        while sources.len() < width {
            sources.push(pad);
        }
        sources
    }

    /// Resolves cell port `port`, adapted to `width` bits.
    fn in_bus(
        &mut self,
        cell: &JsonValue,
        cell_name: &str,
        port: &str,
        width: u32,
        signed: bool,
    ) -> Result<SignalId, ImportError> {
        let bits = self.conn(cell, cell_name, port)?;
        let sources = self.resolve(bits, &format!("cell `{cell_name}` port `{port}`"))?;
        let sources = self.extend(sources, width, signed);
        Ok(self.assemble(&sources))
    }

    /// Resolves cell port `port` at its natural width.
    fn in_bus_natural(
        &mut self,
        cell: &JsonValue,
        cell_name: &str,
        port: &str,
    ) -> Result<SignalId, ImportError> {
        let bits = self.conn(cell, cell_name, port)?;
        let sources = self.resolve(bits, &format!("cell `{cell_name}` port `{port}`"))?;
        if sources.is_empty() {
            return Err(self.merr(format!("cell `{cell_name}` port `{port}` is zero bits")));
        }
        Ok(self.assemble(&sources))
    }

    /// Resolves a 1-bit control port (clock, enable, reset, mux select).
    fn in_bit(
        &mut self,
        cell: &JsonValue,
        cell_name: &str,
        port: &str,
    ) -> Result<SignalId, ImportError> {
        let bits = self.conn(cell, cell_name, port)?;
        let sources = self.resolve(bits, &format!("cell `{cell_name}` port `{port}`"))?;
        if sources.len() != 1 {
            return Err(self.merr(format!(
                "cell `{cell_name}` port `{port}` must be 1 bit, got {}",
                sources.len()
            )));
        }
        Ok(self.assemble(&sources))
    }

    // ----- parameters -----------------------------------------------------

    fn param_bool(&self, cell: &JsonValue, key: &str, default: bool) -> bool {
        match cell.get("parameters").and_then(|p| p.get(key)) {
            Some(JsonValue::Num(n)) => *n != 0.0,
            Some(JsonValue::Str(s)) => s.contains('1'),
            _ => default,
        }
    }

    /// A constant-valued parameter (e.g. `ARST_VALUE`) as a `width`-bit
    /// vector. Yosys encodes these as integers or MSB-first binary strings
    /// which may contain `x`/`z`.
    fn param_const(
        &self,
        cell: &JsonValue,
        cell_name: &str,
        key: &str,
        width: u32,
    ) -> Result<LogicVec, ImportError> {
        let v = cell
            .get("parameters")
            .and_then(|p| p.get(key))
            .ok_or_else(|| self.merr(format!("cell `{cell_name}` is missing parameter `{key}`")))?;
        let mut bits: Vec<LogicBit> = match v {
            JsonValue::Num(n) => {
                let n = *n as u64;
                (0..width)
                    .map(|i| {
                        if i < 64 && (n >> i) & 1 == 1 {
                            LogicBit::One
                        } else {
                            LogicBit::Zero
                        }
                    })
                    .collect()
            }
            JsonValue::Str(s) => s
                .chars()
                .rev()
                .map(|c| match c {
                    '0' => Ok(LogicBit::Zero),
                    '1' => Ok(LogicBit::One),
                    'x' | 'X' => Ok(LogicBit::X),
                    'z' | 'Z' => Ok(LogicBit::Z),
                    other => Err(self.merr(format!(
                        "cell `{cell_name}` parameter `{key}` has invalid bit `{other}`"
                    ))),
                })
                .collect::<Result<_, _>>()?,
            _ => {
                return Err(self.merr(format!(
                    "cell `{cell_name}` parameter `{key}` must be an int or bit string"
                )))
            }
        };
        bits.truncate(width as usize);
        while (bits.len() as u32) < width {
            bits.push(LogicBit::Zero);
        }
        Ok(LogicVec::from_bits(&bits))
    }

    // ----- cell emission --------------------------------------------------

    /// A 1-bit-result node into a possibly wider output (Yosys zero-pads
    /// comparison/reduction results to the Y width).
    fn emit_bool_node(&mut self, op: RtlOp, inputs: Vec<SignalId>, out: SignalId) {
        let wy = self.b.signal_width(out);
        if wy == 1 {
            self.b.add_rtl_node(op, inputs, out);
        } else {
            let t = self.temp(1);
            self.b.add_rtl_node(op, inputs, t);
            let z = self.temp(wy - 1);
            self.b
                .add_rtl_node(RtlOp::Const(LogicVec::zeros(wy - 1)), vec![], z);
            self.b.add_rtl_node(RtlOp::Concat, vec![z, t], out);
        }
    }

    /// The truthiness of a 1-bit control with the given active polarity.
    fn active(&self, sig: SignalId, active_high: bool) -> Expr {
        if active_high {
            Expr::sig(sig)
        } else {
            Expr::un(UnaryOp::LogicalNot, Expr::sig(sig))
        }
    }

    /// Phase D: one pass over the cells emitting RTL nodes into the
    /// signals declared in phase B, and queueing each flop's body on its
    /// register bank.
    fn emit_cells(&mut self) -> Result<(), ImportError> {
        for (cell_name, cell) in obj_of(self.module.get("cells")) {
            let ty = cell.get("type").and_then(|t| t.as_str()).unwrap_or("");
            let out = self.out_sigs[cell_name.as_str()];
            self.emit_cell(cell_name, ty, cell, out)?;
        }
        Ok(())
    }

    fn emit_cell(
        &mut self,
        name: &str,
        ty: &str,
        cell: &JsonValue,
        out: SignalId,
    ) -> Result<(), ImportError> {
        let wy = self.b.signal_width(out);
        let a_signed = self.param_bool(cell, "A_SIGNED", false);
        let b_signed = self.param_bool(cell, "B_SIGNED", false);
        match ty {
            "$buf" | "$pos" | "$_BUF_" => {
                let a = self.in_bus(cell, name, "A", wy, a_signed)?;
                self.b.add_rtl_node(RtlOp::Buf, vec![a], out);
            }
            "$not" | "$_NOT_" => {
                let a = self.in_bus(cell, name, "A", wy, a_signed)?;
                self.b
                    .add_rtl_node(RtlOp::Unary(UnaryOp::Not), vec![a], out);
            }
            "$neg" => {
                let a = self.in_bus(cell, name, "A", wy, a_signed)?;
                self.b
                    .add_rtl_node(RtlOp::Unary(UnaryOp::Neg), vec![a], out);
            }
            "$and" | "$or" | "$xor" | "$xnor" | "$add" | "$sub" | "$mul" | "$div" | "$mod"
            | "$_AND_" | "$_OR_" | "$_XOR_" | "$_XNOR_" => {
                if matches!(ty, "$div" | "$mod") && (a_signed || b_signed) {
                    return Err(self.merr(format!("cell `{name}`: signed `{ty}` is not supported")));
                }
                let op = match ty {
                    "$and" | "$_AND_" => BinaryOp::And,
                    "$or" | "$_OR_" => BinaryOp::Or,
                    "$xor" | "$_XOR_" => BinaryOp::Xor,
                    "$xnor" | "$_XNOR_" => BinaryOp::Xnor,
                    "$add" => BinaryOp::Add,
                    "$sub" => BinaryOp::Sub,
                    "$mul" => BinaryOp::Mul,
                    "$div" => BinaryOp::Div,
                    _ => BinaryOp::Rem,
                };
                let a = self.in_bus(cell, name, "A", wy, a_signed)?;
                let b2 = self.in_bus(cell, name, "B", wy, b_signed)?;
                self.b.add_rtl_node(RtlOp::Binary(op), vec![a, b2], out);
            }
            "$_NAND_" | "$_NOR_" => {
                let inner = if ty == "$_NAND_" {
                    BinaryOp::And
                } else {
                    BinaryOp::Or
                };
                let a = self.in_bus(cell, name, "A", wy, false)?;
                let b2 = self.in_bus(cell, name, "B", wy, false)?;
                let t = self.temp(wy);
                self.b.add_rtl_node(RtlOp::Binary(inner), vec![a, b2], t);
                self.b
                    .add_rtl_node(RtlOp::Unary(UnaryOp::Not), vec![t], out);
            }
            "$shl" | "$sshl" | "$shr" | "$sshr" => {
                if b_signed {
                    return Err(self.merr(format!(
                        "cell `{name}`: signed shift amounts are not supported"
                    )));
                }
                let op = match ty {
                    "$shl" | "$sshl" => BinaryOp::Shl,
                    "$sshr" if a_signed => BinaryOp::AShr,
                    _ => BinaryOp::Shr,
                };
                let a = self.in_bus(cell, name, "A", wy, a_signed)?;
                let amount = self.in_bus_natural(cell, name, "B")?;
                self.b.add_rtl_node(RtlOp::Binary(op), vec![a, amount], out);
            }
            "$mux" | "$_MUX_" => {
                let s = self.in_bit(cell, name, "S")?;
                let a = self.in_bus(cell, name, "A", wy, false)?;
                let b2 = self.in_bus(cell, name, "B", wy, false)?;
                // Yosys: Y = S ? B : A. RtlOp::Mux: [cond, then, else].
                self.b.add_rtl_node(RtlOp::Mux, vec![s, b2, a], out);
            }
            "$eq" | "$ne" | "$lt" | "$le" | "$gt" | "$ge" => {
                let op = match ty {
                    "$eq" => BinaryOp::Eq,
                    "$ne" => BinaryOp::Ne,
                    "$lt" => BinaryOp::Lt,
                    "$le" => BinaryOp::Le,
                    "$gt" => BinaryOp::Gt,
                    _ => BinaryOp::Ge,
                };
                if (a_signed || b_signed) && !matches!(ty, "$eq" | "$ne") {
                    return Err(self.merr(format!(
                        "cell `{name}`: signed ordered comparison `{ty}` is not supported"
                    )));
                }
                let wa = self.conn(cell, name, "A")?.len() as u32;
                let wb = self.conn(cell, name, "B")?.len() as u32;
                let w = wa.max(wb).max(1);
                let a = self.in_bus(cell, name, "A", w, a_signed)?;
                let b2 = self.in_bus(cell, name, "B", w, b_signed)?;
                self.emit_bool_node(RtlOp::Binary(op), vec![a, b2], out);
            }
            "$reduce_and" | "$reduce_or" | "$reduce_bool" | "$reduce_xor" => {
                let op = match ty {
                    "$reduce_and" => UnaryOp::RedAnd,
                    "$reduce_xor" => UnaryOp::RedXor,
                    _ => UnaryOp::RedOr,
                };
                let a = self.in_bus_natural(cell, name, "A")?;
                self.emit_bool_node(RtlOp::Unary(op), vec![a], out);
            }
            "$reduce_xnor" => {
                let a = self.in_bus_natural(cell, name, "A")?;
                let t = self.temp(1);
                self.b
                    .add_rtl_node(RtlOp::Unary(UnaryOp::RedXor), vec![a], t);
                self.emit_bool_node(RtlOp::Unary(UnaryOp::Not), vec![t], out);
            }
            "$logic_not" => {
                let a = self.in_bus_natural(cell, name, "A")?;
                self.emit_bool_node(RtlOp::Unary(UnaryOp::LogicalNot), vec![a], out);
            }
            "$logic_and" | "$logic_or" => {
                let op = if ty == "$logic_and" {
                    BinaryOp::LogicalAnd
                } else {
                    BinaryOp::LogicalOr
                };
                let a = self.in_bus_natural(cell, name, "A")?;
                let b2 = self.in_bus_natural(cell, name, "B")?;
                self.emit_bool_node(RtlOp::Binary(op), vec![a, b2], out);
            }
            "$dff" | "$dffe" | "$adff" | "$sdff" | "$_DFF_P_" | "$_DFF_N_" => {
                self.emit_dff(name, ty, cell, out)?;
            }
            _ => return Err(self.unsupported_cell(name, ty, cell)),
        }
        Ok(())
    }

    fn emit_dff(
        &mut self,
        name: &str,
        ty: &str,
        cell: &JsonValue,
        q: SignalId,
    ) -> Result<(), ImportError> {
        let wq = self.b.signal_width(q);
        // Simple-gate DFFs use port C with polarity in the type name.
        let (clk_port, clk_pol) = match ty {
            "$_DFF_P_" => ("C", true),
            "$_DFF_N_" => ("C", false),
            _ => ("CLK", self.param_bool(cell, "CLK_POLARITY", true)),
        };
        let clk = self.in_bit(cell, name, clk_port)?;
        let d_bits = self.conn(cell, name, "D")?;
        let d_sources = self.resolve(d_bits, &format!("cell `{name}` port `D`"))?;
        let d_sources = self.extend(d_sources, wq, false);
        let d = self.assemble(&d_sources);
        let clk_edge = if clk_pol {
            EdgeKind::Pos
        } else {
            EdgeKind::Neg
        };
        let load = Stmt::assign(q, Expr::sig(d), false);
        let (sensitivity, body) = match ty {
            "$dffe" => {
                let en = self.in_bit(cell, name, "EN")?;
                let en_pol = self.param_bool(cell, "EN_POLARITY", true);
                (
                    Sensitivity::Edges(vec![(clk_edge, clk)]),
                    Stmt::if_then(self.active(en, en_pol), load),
                )
            }
            "$adff" => {
                let arst = self.in_bit(cell, name, "ARST")?;
                let arst_pol = self.param_bool(cell, "ARST_POLARITY", true);
                let arst_val = self.param_const(cell, name, "ARST_VALUE", wq)?;
                let arst_edge = if arst_pol {
                    EdgeKind::Pos
                } else {
                    EdgeKind::Neg
                };
                (
                    Sensitivity::Edges(vec![(clk_edge, clk), (arst_edge, arst)]),
                    Stmt::if_else(
                        self.active(arst, arst_pol),
                        Stmt::assign(q, Expr::Const(arst_val), false),
                        load,
                    ),
                )
            }
            "$sdff" => {
                let srst = self.in_bit(cell, name, "SRST")?;
                let srst_pol = self.param_bool(cell, "SRST_POLARITY", true);
                let srst_val = self.param_const(cell, name, "SRST_VALUE", wq)?;
                (
                    Sensitivity::Edges(vec![(clk_edge, clk)]),
                    Stmt::if_else(
                        self.active(srst, srst_pol),
                        Stmt::assign(q, Expr::Const(srst_val), false),
                        load,
                    ),
                )
            }
            _ => (Sensitivity::Edges(vec![(clk_edge, clk)]), load),
        };
        match self.banks.iter_mut().find(|(_, s, _)| *s == sensitivity) {
            Some((_, _, bodies)) => bodies.push(body),
            None => self.banks.push((name.to_string(), sensitivity, vec![body])),
        }
        Ok(())
    }

    /// Phase E: one behavioral node per register bank — the flops that
    /// share a sensitivity list, so a clock edge is one activation and one
    /// NBA block, not one per flop. The bodies run in cell order, which is
    /// ascending Q id (phase B declares outputs in cell order), so the
    /// block's writes are already in target order. A one-cell bank is the
    /// cell's own node: its name and body unchanged.
    fn emit_banks(&mut self) {
        for (first, sensitivity, mut bodies) in std::mem::take(&mut self.banks) {
            let (name, body) = match bodies.len() {
                1 => (first, bodies.pop().expect("one body")),
                _ => (format!("$bank${first}"), Stmt::Block(bodies)),
            };
            self.b.add_behavioral(name, sensitivity, body);
        }
    }
}

/// The output port name of a supported cell type, `None` if unsupported.
fn output_port_of(ty: &str) -> Option<&'static str> {
    if is_dff(ty) {
        return Some("Q");
    }
    match ty {
        "$buf" | "$pos" | "$not" | "$neg" | "$and" | "$or" | "$xor" | "$xnor" | "$add" | "$sub"
        | "$mul" | "$div" | "$mod" | "$shl" | "$sshl" | "$shr" | "$sshr" | "$mux" | "$eq"
        | "$ne" | "$lt" | "$le" | "$gt" | "$ge" | "$reduce_and" | "$reduce_or" | "$reduce_bool"
        | "$reduce_xor" | "$reduce_xnor" | "$logic_not" | "$logic_and" | "$logic_or" | "$_BUF_"
        | "$_NOT_" | "$_AND_" | "$_NAND_" | "$_OR_" | "$_NOR_" | "$_XOR_" | "$_XNOR_"
        | "$_MUX_" => Some("Y"),
        _ => None,
    }
}

fn is_dff(ty: &str) -> bool {
    matches!(
        ty,
        "$dff" | "$dffe" | "$adff" | "$sdff" | "$_DFF_P_" | "$_DFF_N_"
    )
}

fn const_bit(s: &str) -> Option<LogicBit> {
    match s {
        "0" => Some(LogicBit::Zero),
        "1" => Some(LogicBit::One),
        "x" | "X" => Some(LogicBit::X),
        "z" | "Z" => Some(LogicBit::Z),
        _ => None,
    }
}
