//! Hierarchical elaboration: AST → flattened [`Design`].
//!
//! Elaboration resolves parameters to constants, flattens the module
//! hierarchy with dotted instance prefixes, decomposes continuous-assign
//! expression trees into primitive RTL nodes (with synthetic intermediate
//! nets), and converts `always` bodies into behavioral statement trees.

use crate::ast::*;
use crate::error::CompileError;
use eraser_ir::{
    analysis::expr_width_with, ops, Design, DesignBuilder, Expr, LValue, PortDir, RtlOp,
    Sensitivity, SignalId, SignalKind, Stmt,
};
use eraser_logic::LogicVec;
use std::collections::HashMap;

/// Elaborates a parsed source unit into a flattened design.
///
/// # Errors
///
/// Returns a [`CompileError`] for unknown modules/signals, non-constant
/// expressions in constant contexts, driver-kind violations (continuous
/// assignment to a `reg`, behavioral assignment to a `wire`), and any
/// design-rule violation detected by
/// [`DesignBuilder::finish`](eraser_ir::DesignBuilder::finish).
pub fn elaborate(unit: &SourceUnit, top: Option<&str>) -> Result<Design, CompileError> {
    let mut modules: HashMap<&str, &ModuleDecl> = HashMap::new();
    for m in &unit.modules {
        if modules.insert(m.name.as_str(), m).is_some() {
            return Err(CompileError::at(
                m.line,
                format!("duplicate module `{}`", m.name),
            ));
        }
    }
    let top_decl = match top {
        Some(name) => *modules
            .get(name)
            .ok_or_else(|| CompileError::design(format!("top module `{name}` not found")))?,
        None => unit
            .modules
            .last()
            .ok_or_else(|| CompileError::design("source contains no modules"))?,
    };
    let mut elab = Elaborator {
        modules,
        builder: DesignBuilder::new(top_decl.name.clone()),
        temp_counter: 0,
        depth: 0,
    };
    elab.instantiate(top_decl, "", &HashMap::new(), None)?;
    Ok(elab.builder.finish()?)
}

/// A port connection prepared by the parent scope.
struct PreparedConn {
    dir: AstPortDir,
    /// Parent-side signal (source for inputs, destination for outputs).
    parent: Option<SignalId>,
    line: u32,
}

struct Scope {
    params: HashMap<String, LogicVec>,
    signals: HashMap<String, SignalId>,
}

struct Elaborator<'a> {
    modules: HashMap<&'a str, &'a ModuleDecl>,
    builder: DesignBuilder,
    temp_counter: usize,
    depth: u32,
}

impl<'a> Elaborator<'a> {
    /// Instantiates `decl` under `prefix`. For the top module
    /// (`conns == None`) ports become design ports; otherwise `conns` maps
    /// port names to prepared parent-side connections.
    fn instantiate(
        &mut self,
        decl: &'a ModuleDecl,
        prefix: &str,
        param_overrides: &HashMap<String, LogicVec>,
        conns: Option<HashMap<String, PreparedConn>>,
    ) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > 64 {
            return Err(CompileError::at(
                decl.line,
                format!(
                    "instantiation depth limit exceeded at `{}` (recursive hierarchy?)",
                    decl.name
                ),
            ));
        }
        let mut scope = Scope {
            params: HashMap::new(),
            signals: HashMap::new(),
        };

        // Parameters: header first, then body; overrides apply to
        // non-local parameters.
        for (name, value) in &decl.header_params {
            let v = match param_overrides.get(name) {
                Some(ov) => ov.clone(),
                None => self.const_eval(value, &scope)?,
            };
            scope.params.insert(name.clone(), v);
        }
        for item in &decl.items {
            if let Item::Param {
                local,
                name,
                value,
                line: _,
            } = item
            {
                let v = match (!local).then(|| param_overrides.get(name)).flatten() {
                    Some(ov) => ov.clone(),
                    None => self.const_eval(value, &scope)?,
                };
                scope.params.insert(name.clone(), v);
            }
        }

        // Ports.
        let is_top = conns.is_none();
        for port in &decl.ports {
            let width = self.range_width(&port.range, &scope, port.line)?;
            let full = format!("{prefix}{}", port.name);
            let kind = match port.kind {
                AstNetKind::Wire => SignalKind::Wire,
                AstNetKind::Reg => SignalKind::Reg,
            };
            if port.dir == AstPortDir::Input && kind == SignalKind::Reg {
                return Err(CompileError::at(port.line, "input ports cannot be `reg`"));
            }
            let dir = if is_top {
                Some(match port.dir {
                    AstPortDir::Input => PortDir::Input,
                    AstPortDir::Output => PortDir::Output,
                })
            } else {
                None
            };
            let id = self.builder.add_signal_full(full, width, kind, dir, false);
            scope.signals.insert(port.name.clone(), id);
        }

        // Declarations.
        for item in &decl.items {
            match item {
                Item::Net {
                    kind,
                    range,
                    names,
                    init: _,
                    line,
                } => {
                    let width = self.range_width(range, &scope, *line)?;
                    let k = match kind {
                        AstNetKind::Wire => SignalKind::Wire,
                        AstNetKind::Reg => SignalKind::Reg,
                    };
                    for n in names {
                        if scope.signals.contains_key(n) {
                            return Err(CompileError::at(*line, format!("duplicate signal `{n}`")));
                        }
                        let id = self.builder.add_signal_full(
                            format!("{prefix}{n}"),
                            width,
                            k,
                            None,
                            false,
                        );
                        scope.signals.insert(n.clone(), id);
                    }
                }
                Item::Integer { names, line } => {
                    for n in names {
                        if scope.signals.contains_key(n) {
                            return Err(CompileError::at(*line, format!("duplicate signal `{n}`")));
                        }
                        // Loop variables: 32-bit variables, excluded from
                        // fault injection (marked synthetic).
                        let id = self.builder.add_signal_full(
                            format!("{prefix}{n}"),
                            32,
                            SignalKind::Reg,
                            None,
                            true,
                        );
                        scope.signals.insert(n.clone(), id);
                    }
                }
                _ => {}
            }
        }

        // Port connections (sub-instances): bridge with Buf nodes.
        if let Some(conns) = conns {
            for (pname, conn) in conns {
                let port_sig = *scope.signals.get(&pname).ok_or_else(|| {
                    CompileError::at(
                        conn.line,
                        format!("module `{}` has no port `{pname}`", decl.name),
                    )
                })?;
                match (conn.dir, conn.parent) {
                    (AstPortDir::Input, Some(src)) => {
                        self.builder.add_rtl_node(RtlOp::Buf, vec![src], port_sig);
                    }
                    (AstPortDir::Output, Some(dst)) => {
                        self.builder.add_rtl_node(RtlOp::Buf, vec![port_sig], dst);
                    }
                    (_, None) => {} // unconnected
                }
            }
        }

        // Behavior.
        for item in &decl.items {
            match item {
                Item::Net {
                    kind,
                    names,
                    init: Some(init),
                    line,
                    ..
                } => {
                    if *kind != AstNetKind::Wire {
                        return Err(CompileError::at(
                            *line,
                            "initializers are only supported on `wire` declarations",
                        ));
                    }
                    let out = self.lookup(&names[0], &scope, *line)?;
                    let rhs = self.resolve_expr(init, &scope)?;
                    self.flatten_into(&rhs, out);
                }
                Item::Assign { lhs, rhs, line } => {
                    let out = self.lookup(lhs, &scope, *line)?;
                    if self.kind_of(out) != SignalKind::Wire {
                        return Err(CompileError::at(
                            *line,
                            format!("continuous assignment target `{lhs}` must be a wire"),
                        ));
                    }
                    let rhs = self.resolve_expr(rhs, &scope)?;
                    self.flatten_into(&rhs, out);
                }
                Item::Always { sens, body, line } => {
                    let sensitivity = self.resolve_sens(sens, &scope, *line)?;
                    let stmt = self.resolve_stmt(body, &scope)?;
                    // Behavioral writes must target variables.
                    let mut writes = Vec::new();
                    stmt.collect_writes(&mut writes);
                    for w in &writes {
                        if self.kind_of(*w) != SignalKind::Reg {
                            return Err(CompileError::at(
                                *line,
                                "behavioral assignment target must be a reg".to_string(),
                            ));
                        }
                    }
                    let name = format!("{prefix}always@{line}");
                    self.builder.add_behavioral(name, sensitivity, stmt);
                }
                Item::Instance {
                    module,
                    name,
                    params,
                    conns: raw_conns,
                    line,
                } => {
                    let child = *self.modules.get(module.as_str()).ok_or_else(|| {
                        CompileError::at(*line, format!("unknown module `{module}`"))
                    })?;
                    let mut overrides = HashMap::new();
                    for (pname, pexpr) in params {
                        overrides.insert(pname.clone(), self.const_eval(pexpr, &scope)?);
                    }
                    // Prepare connections in the parent scope.
                    let port_dirs: HashMap<&str, AstPortDir> = child
                        .ports
                        .iter()
                        .map(|p| (p.name.as_str(), p.dir))
                        .collect();
                    let mut prepared = HashMap::new();
                    for (pname, pexpr) in raw_conns {
                        let dir = *port_dirs.get(pname.as_str()).ok_or_else(|| {
                            CompileError::at(
                                *line,
                                format!("module `{module}` has no port `{pname}`"),
                            )
                        })?;
                        let parent =
                            match pexpr {
                                None => None,
                                Some(e) => Some(match dir {
                                    AstPortDir::Input => {
                                        let resolved = self.resolve_expr(e, &scope)?;
                                        self.flatten(&resolved)
                                    }
                                    AstPortDir::Output => match e {
                                        AstExpr::Ident(n, l) => self.lookup(n, &scope, *l)?,
                                        other => return Err(CompileError::at(
                                            other.line(),
                                            "output port connections must be plain signal names",
                                        )),
                                    },
                                }),
                            };
                        prepared.insert(
                            pname.clone(),
                            PreparedConn {
                                dir,
                                parent,
                                line: *line,
                            },
                        );
                    }
                    let child_prefix = format!("{prefix}{name}.");
                    self.instantiate(child, &child_prefix, &overrides, Some(prepared))?;
                }
                _ => {}
            }
        }
        self.depth -= 1;
        Ok(())
    }

    // ---- helpers ----

    fn kind_of(&self, sig: SignalId) -> SignalKind {
        self.builder.signal_kind(sig)
    }

    fn lookup(&self, name: &str, scope: &Scope, line: u32) -> Result<SignalId, CompileError> {
        scope
            .signals
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::at(line, format!("unknown signal `{name}`")))
    }

    fn range_width(
        &mut self,
        range: &Option<(AstExpr, AstExpr)>,
        scope: &Scope,
        line: u32,
    ) -> Result<u32, CompileError> {
        match range {
            None => Ok(1),
            Some((msb, lsb)) => {
                let m = self.const_u32(msb, scope)?;
                let l = self.const_u32(lsb, scope)?;
                if l != 0 {
                    return Err(CompileError::at(
                        line,
                        "only `[msb:0]` ranges are supported by this subset",
                    ));
                }
                Ok(m + 1)
            }
        }
    }

    fn const_u32(&mut self, e: &AstExpr, scope: &Scope) -> Result<u32, CompileError> {
        let v = self.const_eval(e, scope)?;
        v.to_u64()
            .filter(|x| *x <= u32::MAX as u64)
            .map(|x| x as u32)
            .ok_or_else(|| CompileError::at(e.line(), "expression is not a defined constant"))
    }

    /// Constant expression evaluation (literals, parameters, operators).
    fn const_eval(&mut self, e: &AstExpr, scope: &Scope) -> Result<LogicVec, CompileError> {
        match e {
            AstExpr::Literal(raw, line) => {
                LogicVec::parse_literal(raw).map_err(|err| CompileError::at(*line, err.to_string()))
            }
            AstExpr::Ident(name, line) => scope.params.get(name).cloned().ok_or_else(|| {
                CompileError::at(
                    *line,
                    format!("`{name}` is not a constant (parameter) here"),
                )
            }),
            AstExpr::Unary(op, inner) => {
                let mut v = self.const_eval(inner, scope)?;
                ops::unary_assign(*op, &mut v);
                Ok(v)
            }
            AstExpr::Binary(op, l, r) => {
                let lv = self.const_eval(l, scope)?;
                let rv = self.const_eval(r, scope)?;
                let mut out = LogicVec::default();
                ops::binary(*op, &lv, &rv, &mut out);
                Ok(out)
            }
            AstExpr::Ternary(c, t, f) => {
                let truth = self.const_eval(c, scope)?.truth();
                let (first, second) = ops::mux_pick(truth, &**t, &**f);
                let mut out = self.const_eval(first, scope)?;
                if truth.is_defined() {
                    // Like the simulator, evaluate only the chosen branch.
                    // The other contributes its width, or none when a guard
                    // leaves it invalid (`{0{...}}`).
                    if let Ok(e) = self.resolve_expr(second, scope) {
                        let w = out.width().max(self.expr_width(&e));
                        out.resize_assign(w);
                    }
                } else {
                    let other = self.const_eval(second, scope)?;
                    ops::mux_assign(truth, &mut out, &other);
                }
                Ok(out)
            }
            AstExpr::Concat(parts) => {
                let vals: Result<Vec<LogicVec>, CompileError> =
                    parts.iter().map(|p| self.const_eval(p, scope)).collect();
                let mut out = LogicVec::default();
                ops::concat(vals?.iter().rev(), &mut out);
                Ok(out)
            }
            AstExpr::Replicate(n, inner) => {
                let count = self.const_u32(n, scope)?;
                let v = self.const_eval(inner, scope)?;
                check_replicate(count, v.width(), n.line())?;
                let mut out = LogicVec::default();
                ops::replicate(count, &v, &mut out);
                Ok(out)
            }
            other => Err(CompileError::at(
                other.line(),
                "expression is not constant in this context",
            )),
        }
    }

    /// Resolves a source expression to an IR expression in `scope`.
    fn resolve_expr(&mut self, e: &AstExpr, scope: &Scope) -> Result<Expr, CompileError> {
        Ok(match e {
            AstExpr::Literal(raw, line) => Expr::Const(
                LogicVec::parse_literal(raw)
                    .map_err(|err| CompileError::at(*line, err.to_string()))?,
            ),
            AstExpr::Ident(name, line) => {
                if let Some(v) = scope.params.get(name) {
                    Expr::Const(v.clone())
                } else {
                    Expr::Signal(self.lookup(name, scope, *line)?)
                }
            }
            AstExpr::Unary(op, inner) => Expr::un(*op, self.resolve_expr(inner, scope)?),
            AstExpr::Binary(op, l, r) => Expr::bin(
                *op,
                self.resolve_expr(l, scope)?,
                self.resolve_expr(r, scope)?,
            ),
            AstExpr::Ternary(c, t, f) => Expr::Ternary {
                cond: Box::new(self.resolve_expr(c, scope)?),
                then_e: Box::new(self.resolve_expr(t, scope)?),
                else_e: Box::new(self.resolve_expr(f, scope)?),
            },
            AstExpr::Concat(parts) => Expr::Concat(
                parts
                    .iter()
                    .map(|p| self.resolve_expr(p, scope))
                    .collect::<Result<_, _>>()?,
            ),
            AstExpr::Replicate(n, inner) => {
                let count = self.const_u32(n, scope)?;
                let inner = self.resolve_expr(inner, scope)?;
                check_replicate(count, self.expr_width(&inner), n.line())?;
                Expr::Replicate(count, Box::new(inner))
            }
            AstExpr::Bit { base, index, line } => {
                // Bit select on a parameter constant.
                if let Some(v) = scope.params.get(base).cloned() {
                    let i = self.const_u32(index, scope)?;
                    return Ok(Expr::Const(LogicVec::from_bit(v.bit_or_x(i))));
                }
                let sig = self.lookup(base, scope, *line)?;
                match self.try_const_u32(index, scope) {
                    Some(i) => Expr::Slice {
                        base: sig,
                        hi: i,
                        lo: i,
                    },
                    None => Expr::Index {
                        base: sig,
                        index: Box::new(self.resolve_expr(index, scope)?),
                    },
                }
            }
            AstExpr::Part { base, hi, lo, line } => {
                let sig = self.lookup(base, scope, *line)?;
                let h = self.const_u32(hi, scope)?;
                let l = self.const_u32(lo, scope)?;
                if h < l {
                    return Err(CompileError::at(
                        *line,
                        "part select `[hi:lo]` requires hi >= lo",
                    ));
                }
                Expr::Slice {
                    base: sig,
                    hi: h,
                    lo: l,
                }
            }
            AstExpr::IndexedPart {
                base,
                start,
                width,
                line,
            } => {
                let sig = self.lookup(base, scope, *line)?;
                let w = self.const_u32(width, scope)?;
                match self.try_const_u32(start, scope) {
                    Some(s) => Expr::Slice {
                        base: sig,
                        hi: s + w - 1,
                        lo: s,
                    },
                    None => Expr::IndexedPart {
                        base: sig,
                        start: Box::new(self.resolve_expr(start, scope)?),
                        width: w,
                    },
                }
            }
        })
    }

    fn try_const_u32(&mut self, e: &AstExpr, scope: &Scope) -> Option<u32> {
        self.const_eval(e, scope)
            .ok()
            .and_then(|v| v.to_u64())
            .filter(|x| *x <= u32::MAX as u64)
            .map(|x| x as u32)
    }

    fn resolve_sens(
        &mut self,
        sens: &AstSens,
        scope: &Scope,
        line: u32,
    ) -> Result<Sensitivity, CompileError> {
        Ok(match sens {
            AstSens::Star => Sensitivity::Star,
            AstSens::Edges(edges) => Sensitivity::Edges(
                edges
                    .iter()
                    .map(|(k, n)| Ok((*k, self.lookup(n, scope, line)?)))
                    .collect::<Result<Vec<_>, CompileError>>()?,
            ),
            AstSens::Level(names) => Sensitivity::Level(
                names
                    .iter()
                    .map(|n| self.lookup(n, scope, line))
                    .collect::<Result<Vec<_>, CompileError>>()?,
            ),
        })
    }

    fn resolve_lvalue(
        &mut self,
        lv: &AstLValue,
        scope: &Scope,
        line: u32,
    ) -> Result<LValue, CompileError> {
        Ok(match lv {
            AstLValue::Ident(n) => LValue::Full(self.lookup(n, scope, line)?),
            AstLValue::Bit { base, index } => {
                let sig = self.lookup(base, scope, line)?;
                match self.try_const_u32(index, scope) {
                    Some(i) => LValue::PartSelect {
                        base: sig,
                        hi: i,
                        lo: i,
                    },
                    None => LValue::BitSelect {
                        base: sig,
                        index: self.resolve_expr(index, scope)?,
                    },
                }
            }
            AstLValue::Part { base, hi, lo } => {
                let sig = self.lookup(base, scope, line)?;
                LValue::PartSelect {
                    base: sig,
                    hi: self.const_u32(hi, scope)?,
                    lo: self.const_u32(lo, scope)?,
                }
            }
            AstLValue::IndexedPart { base, start, width } => {
                let sig = self.lookup(base, scope, line)?;
                let w = self.const_u32(width, scope)?;
                match self.try_const_u32(start, scope) {
                    Some(s) => LValue::PartSelect {
                        base: sig,
                        hi: s + w - 1,
                        lo: s,
                    },
                    None => LValue::IndexedPart {
                        base: sig,
                        start: self.resolve_expr(start, scope)?,
                        width: w,
                    },
                }
            }
        })
    }

    fn resolve_stmt(&mut self, s: &AstStmt, scope: &Scope) -> Result<Stmt, CompileError> {
        Ok(match s {
            AstStmt::Block(stmts) => Stmt::Block(
                stmts
                    .iter()
                    .map(|st| self.resolve_stmt(st, scope))
                    .collect::<Result<_, _>>()?,
            ),
            AstStmt::Assign {
                lhs,
                rhs,
                blocking,
                line,
            } => Stmt::Assign {
                lhs: self.resolve_lvalue(lhs, scope, *line)?,
                rhs: self.resolve_expr(rhs, scope)?,
                blocking: *blocking,
                segment: eraser_ir::SegmentId(0),
            },
            AstStmt::If {
                cond,
                then_s,
                else_s,
            } => Stmt::If {
                cond: self.resolve_expr(cond, scope)?,
                then_s: Box::new(self.resolve_stmt(then_s, scope)?),
                else_s: match else_s {
                    Some(e) => Some(Box::new(self.resolve_stmt(e, scope)?)),
                    None => None,
                },
                decision: eraser_ir::DecisionId(0),
            },
            AstStmt::Case {
                scrutinee,
                arms,
                default,
                wildcard,
            } => Stmt::Case {
                scrutinee: self.resolve_expr(scrutinee, scope)?,
                arms: arms
                    .iter()
                    .map(|(labels, body)| {
                        Ok(eraser_ir::CaseArm {
                            labels: labels
                                .iter()
                                .map(|l| self.resolve_expr(l, scope))
                                .collect::<Result<_, CompileError>>()?,
                            body: self.resolve_stmt(body, scope)?,
                        })
                    })
                    .collect::<Result<_, CompileError>>()?,
                default: match default {
                    Some(d) => Some(Box::new(self.resolve_stmt(d, scope)?)),
                    None => None,
                },
                kind: if *wildcard {
                    eraser_ir::CaseKind::Z
                } else {
                    eraser_ir::CaseKind::Exact
                },
                decision: eraser_ir::DecisionId(0),
            },
            AstStmt::For {
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                init: Box::new(self.resolve_stmt(init, scope)?),
                cond: self.resolve_expr(cond, scope)?,
                step: Box::new(self.resolve_stmt(step, scope)?),
                body: Box::new(self.resolve_stmt(body, scope)?),
                decision: eraser_ir::DecisionId(0),
            },
            AstStmt::Nop => Stmt::Nop,
        })
    }

    // ---- RTL flattening ----

    /// Flattens `expr` into RTL nodes; the final value lands on `out`
    /// (with a width-adapting `Buf` if needed).
    fn flatten_into(&mut self, expr: &Expr, out: SignalId) {
        let w = self.expr_width(expr);
        let out_w = self.builder.signal_width(out);
        if w == out_w {
            self.emit_node(expr, Some(out));
        } else {
            let t = self.emit_node(expr, None);
            self.builder.add_rtl_node(RtlOp::Buf, vec![t], out);
        }
    }

    /// Flattens `expr` into RTL nodes, returning the signal holding its
    /// value (existing signal for plain references, fresh temp otherwise).
    fn flatten(&mut self, expr: &Expr) -> SignalId {
        if let Expr::Signal(s) = expr {
            return *s;
        }
        self.emit_node(expr, None)
    }

    fn fresh_temp(&mut self, width: u32) -> SignalId {
        let name = format!("$t{}", self.temp_counter);
        self.temp_counter += 1;
        self.builder.add_temp(name, width)
    }

    fn expr_width(&self, expr: &Expr) -> u32 {
        let b = &self.builder;
        expr_width_with(expr, &|s| b.signal_width(s))
    }

    /// Emits the RTL node for the root of `expr` (recursively flattening
    /// operands) into `out`, or into a fresh temp if `out` is `None`.
    fn emit_node(&mut self, expr: &Expr, out: Option<SignalId>) -> SignalId {
        let width = self.expr_width(expr);
        let out = out.unwrap_or_else(|| self.fresh_temp(width));
        match expr {
            Expr::Signal(s) => {
                self.builder.add_rtl_node(RtlOp::Buf, vec![*s], out);
            }
            Expr::Const(v) => {
                self.builder
                    .add_rtl_node(RtlOp::Const(v.clone()), vec![], out);
            }
            Expr::Unary(op, e) => {
                let a = self.flatten(e);
                self.builder.add_rtl_node(RtlOp::Unary(*op), vec![a], out);
            }
            Expr::Binary(op, l, r) => {
                let a = self.flatten(l);
                let b = self.flatten(r);
                self.builder
                    .add_rtl_node(RtlOp::Binary(*op), vec![a, b], out);
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.flatten(cond);
                let t = self.flatten(then_e);
                let e = self.flatten(else_e);
                self.builder.add_rtl_node(RtlOp::Mux, vec![c, t, e], out);
            }
            Expr::Concat(parts) => {
                let inputs: Vec<SignalId> = parts.iter().map(|p| self.flatten(p)).collect();
                self.builder.add_rtl_node(RtlOp::Concat, inputs, out);
            }
            Expr::Replicate(n, e) => {
                let a = self.flatten(e);
                self.builder
                    .add_rtl_node(RtlOp::Replicate(*n), vec![a], out);
            }
            Expr::Slice { base, hi, lo } => {
                self.builder
                    .add_rtl_node(RtlOp::Slice { hi: *hi, lo: *lo }, vec![*base], out);
            }
            Expr::Index { base, index } => {
                let i = self.flatten(index);
                self.builder.add_rtl_node(RtlOp::Index, vec![*base, i], out);
            }
            Expr::IndexedPart { base, start, width } => {
                let s = self.flatten(start);
                self.builder.add_rtl_node(
                    RtlOp::IndexedPart { width: *width },
                    vec![*base, s],
                    out,
                );
            }
        }
        out
    }
}

/// The widest replication result accepted. IEEE 1364 §4.2.1 lets a tool
/// limit vector widths to no less than 2^16 bits; this one allows 2^20, so
/// a count that wrapped below zero is an error, not a huge allocation.
const MAX_REPLICATE_WIDTH: u32 = 1 << 20;

/// Checks `{count{v}}` for a `v` of `inner_width` bits: the count must be
/// positive and the result at most [`MAX_REPLICATE_WIDTH`] bits wide.
fn check_replicate(count: u32, inner_width: u32, line: u32) -> Result<(), CompileError> {
    match count.checked_mul(inner_width) {
        Some(w) if (1..=MAX_REPLICATE_WIDTH).contains(&w) => Ok(()),
        _ => Err(CompileError::at(
            line,
            format!(
                "replication `{{{count}{{...}}}}` must have a positive count \
                 and at most {MAX_REPLICATE_WIDTH} result bits"
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn compile(src: &str) -> Design {
        elaborate(&parse(lex(src).unwrap()).unwrap(), None).unwrap()
    }

    fn compile_err(src: &str) -> CompileError {
        elaborate(&parse(lex(src).unwrap()).unwrap(), None).unwrap_err()
    }

    #[test]
    fn flat_assign_becomes_rtl_nodes() {
        let d = compile(
            "module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] x);
               assign x = (a & b) + 8'h01;
             endmodule",
        );
        // Nodes: And, Const, Add (add feeds x directly) -> 3 nodes.
        assert_eq!(d.rtl_nodes().len(), 3);
        assert_eq!(d.behavioral_nodes().len(), 0);
        assert!(d.find_signal("$t0").is_some());
    }

    #[test]
    fn parameters_resolve_and_override() {
        let d = compile(
            "module sub #(parameter W = 4) (input wire [W-1:0] a, output wire [W-1:0] y);
               assign y = ~a;
             endmodule
             module top(input wire [7:0] a, output wire [7:0] y);
               sub #(.W(8)) u0 (.a(a), .y(y));
             endmodule",
        );
        let port = d.find_signal("u0.a").unwrap();
        assert_eq!(d.signal(port).width, 8);
    }

    #[test]
    fn hierarchy_flattens_with_prefixes() {
        let d = compile(
            "module inv(input wire i, output wire o);
               assign o = ~i;
             endmodule
             module top(input wire x, output wire y);
               wire m;
               inv a (.i(x), .o(m));
               inv b (.i(m), .o(y));
             endmodule",
        );
        assert!(d.find_signal("a.i").is_some());
        assert!(d.find_signal("b.o").is_some());
        // 2 Not nodes + 4 port Bufs.
        assert_eq!(d.rtl_nodes().len(), 6);
    }

    #[test]
    fn always_block_elaborates() {
        let d = compile(
            "module m(input wire clk, input wire rst, output reg [3:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 4'h0;
                 else q <= q + 4'h1;
               end
             endmodule",
        );
        assert_eq!(d.behavioral_nodes().len(), 1);
        let b = &d.behavioral_nodes()[0];
        assert_eq!(b.vdg.decisions.len(), 1);
        assert_eq!(b.vdg.segments.len(), 2);
        assert!(b.sensitivity.is_edge());
    }

    /// A constant `?:` folds as the simulator evaluates it: the chosen
    /// branch at the wider branch's width, and an unknown condition merges
    /// the branches bit by bit. A defined condition never evaluates the
    /// other branch, so a guard can keep an invalid replication out.
    #[test]
    fn constant_ternary_follows_the_simulator() {
        let d = compile(
            "module m(output wire [15:0] y, output wire [3:0] z,
                      output wire [31:0] a, output wire [31:0] b, output wire [31:0] c);
               localparam P = 1'b1 ? 4'hf : 8'h00;
               localparam Q = 1'bx ? 4'b1100 : 4'b1010;
               localparam N = 8;
               localparam M = 9;
               localparam PA = (N < 8) ? {(8-N){1'b0}} : 0;
               localparam PB = (M < 8) ? {(8-M){1'b0}} : 0;
               localparam PC = (M < 8) ? {(8-M){2'b00}} : 0;
               assign y = {P, P};
               assign z = Q;
               assign a = PA;
               assign b = PB;
               assign c = PC;
             endmodule",
        );
        let consts: Vec<&LogicVec> = d
            .rtl_nodes()
            .iter()
            .filter_map(|n| match &n.op {
                RtlOp::Const(c) => Some(c),
                _ => None,
            })
            .collect();
        let p = LogicVec::from_u64(8, 0x0f);
        let q = LogicVec::parse_literal("4'b1xx0").unwrap();
        assert!(consts.contains(&&p), "P must be 8'h0f: {consts:?}");
        assert!(consts.contains(&&q), "Q must be 4'b1xx0: {consts:?}");
        let zero = LogicVec::zeros(32);
        assert!(
            consts.iter().all(|c| **c == p || **c == q || **c == zero),
            "{consts:?}"
        );
        for count in ["0", "(8-9)", "32'h8000_0000"] {
            let err = compile_err(&format!(
                "module m(output wire [1:0] y); assign y = {{{count}{{2'b01}}}}; endmodule"
            ));
            assert!(err.to_string().contains("replication"), "{count}: {err}");
        }
    }

    #[test]
    fn localparam_cannot_be_overridden() {
        let d = compile(
            "module sub (output wire [7:0] y);
               localparam V = 8'h2a;
               assign y = V;
             endmodule
             module top(output wire [7:0] y);
               sub u0 (.y(y));
             endmodule",
        );
        assert_eq!(d.rtl_nodes().len(), 2); // Const + Buf
    }

    #[test]
    fn const_bit_select_becomes_slice() {
        let d = compile(
            "module m(input wire [7:0] a, output wire x);
               assign x = a[3];
             endmodule",
        );
        assert!(matches!(d.rtl_nodes()[0].op, RtlOp::Slice { hi: 3, lo: 3 }));
    }

    #[test]
    fn input_expression_connections_are_flattened() {
        let d = compile(
            "module inv(input wire i, output wire o); assign o = ~i; endmodule
             module top(input wire a, input wire b, output wire y);
               inv u (.i(a ^ b), .o(y));
             endmodule",
        );
        // Xor + (Buf into u.i) + Not + (Buf out of u.o).
        assert_eq!(d.rtl_nodes().len(), 4);
    }

    #[test]
    fn error_unknown_signal() {
        let e = compile_err("module m(output wire x); assign x = nosuch; endmodule");
        assert!(e.message.contains("unknown signal"));
    }

    #[test]
    fn error_assign_to_reg() {
        let e = compile_err("module m(output reg x); assign x = 1'b0; endmodule");
        assert!(e.message.contains("must be a wire"));
    }

    #[test]
    fn error_behavioral_write_to_wire() {
        let e = compile_err(
            "module m(input wire c, output wire x);
               always @(*) x = c;
             endmodule",
        );
        assert!(e.message.contains("must be a reg"));
    }

    #[test]
    fn error_nonzero_lsb() {
        let e =
            compile_err("module m(input wire [7:4] a, output wire x); assign x = a[4]; endmodule");
        assert!(e.message.contains("[msb:0]"));
    }

    #[test]
    fn error_unknown_module() {
        let e = compile_err("module top(input wire a); nosuch u (.x(a)); endmodule");
        assert!(e.message.contains("unknown module"));
    }

    #[test]
    fn integers_are_synthetic() {
        let d = compile(
            "module m(input wire clk, output reg [3:0] q);
               integer i;
               always @(posedge clk) begin
                 for (i = 0; i < 4; i = i + 1) q[i] <= ~q[i];
               end
             endmodule",
        );
        let i = d.find_signal("i").unwrap();
        assert!(d.signal(i).synthetic);
        assert_eq!(d.signal(i).width, 32);
    }

    #[test]
    fn recursive_instantiation_is_caught() {
        let e = compile_err("module a(input wire x); a u (.x(x)); endmodule");
        assert!(e.message.contains("depth"));
    }
}
