//! Static analyses: expression widths, RTL node result widths, the signal
//! influence graph, structural observability, activation-local signals and
//! the bit read census.

use crate::design::{Design, Driver};
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::ids::SignalId;
use crate::node::RtlOp;
use crate::stmt::{LValue, Stmt};

/// The result width of unary `op` on a `w`-bit operand: `~` and unary `-`
/// keep it, reductions and `!` produce 1 bit.
pub fn unary_width(op: UnaryOp, w: u32) -> u32 {
    match op {
        UnaryOp::Not | UnaryOp::Neg => w,
        UnaryOp::LogicalNot | UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor => 1,
    }
}

/// The result width of binary `op` on `lw`- and `rw`-bit operands:
/// bitwise and arithmetic operators evaluate at `max(lw, rw)`, shifts keep
/// the left operand's width, comparisons and logical operators produce
/// 1 bit.
pub fn binary_width(op: BinaryOp, lw: u32, rw: u32) -> u32 {
    if op.is_single_bit() {
        1
    } else {
        match op {
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => lw,
            _ => lw.max(rw),
        }
    }
}

/// The result width of `expr` under the documented width model: operators
/// follow [`unary_width`] and [`binary_width`], a ternary takes its wider
/// branch, concat/replicate/slice widths are structural.
///
/// `sig_width` maps a signal to its declared width (the builder or design
/// provides it).
pub fn expr_width_with(expr: &Expr, sig_width: &impl Fn(crate::SignalId) -> u32) -> u32 {
    match expr {
        Expr::Const(v) => v.width(),
        Expr::Signal(s) => sig_width(*s),
        Expr::Unary(op, e) => unary_width(*op, expr_width_with(e, sig_width)),
        Expr::Binary(op, l, r) => binary_width(
            *op,
            expr_width_with(l, sig_width),
            expr_width_with(r, sig_width),
        ),
        Expr::Ternary { then_e, else_e, .. } => {
            expr_width_with(then_e, sig_width).max(expr_width_with(else_e, sig_width))
        }
        Expr::Concat(parts) => parts.iter().map(|p| expr_width_with(p, sig_width)).sum(),
        Expr::Replicate(n, e) => n * expr_width_with(e, sig_width),
        Expr::Slice { hi, lo, .. } => hi - lo + 1,
        Expr::Index { .. } => 1,
        Expr::IndexedPart { width, .. } => *width,
    }
}

/// [`expr_width_with`] reading widths from a finalized design.
pub fn expr_width(design: &Design, expr: &Expr) -> u32 {
    expr_width_with(expr, &|s| design.signal(s).width)
}

/// The output width an RTL node produces given its input widths, or `None`
/// if the input count does not match the operator's arity.
pub fn rtl_output_width(op: &RtlOp, input_widths: &[u32]) -> Option<u32> {
    match op {
        RtlOp::Buf => (input_widths.len() == 1).then(|| input_widths[0]),
        RtlOp::Unary(u) => (input_widths.len() == 1).then(|| unary_width(*u, input_widths[0])),
        RtlOp::Binary(bo) => {
            (input_widths.len() == 2).then(|| binary_width(*bo, input_widths[0], input_widths[1]))
        }
        RtlOp::Mux => (input_widths.len() == 3).then(|| input_widths[1].max(input_widths[2])),
        RtlOp::Concat => (!input_widths.is_empty()).then(|| input_widths.iter().sum()),
        RtlOp::Replicate(n) => (input_widths.len() == 1).then(|| n * input_widths[0]),
        RtlOp::Slice { hi, lo } => (input_widths.len() == 1).then(|| hi - lo + 1),
        RtlOp::Index => (input_widths.len() == 2).then_some(1),
        RtlOp::IndexedPart { width } => (input_widths.len() == 2).then_some(*width),
        RtlOp::Const(v) => input_widths.is_empty().then(|| v.width()),
    }
}

/// Static influence graph: `adj[s]` lists the signals whose next committed
/// value can depend on `s` — RTL node inputs map to their output, and a
/// behavioral node's reads *and* activation signals map to every signal it
/// writes (an activation-only source can change *when* a write happens,
/// which is influence even without dataflow).
///
/// This is the structural over-approximation of fault-difference
/// propagation shared by activation-window analysis and static fault
/// collapsing in `eraser-fault`: a fault difference sited on `s` can only
/// ever surface on signals reachable from `s` in this graph. The graph is
/// per node, so a node that groups independent writers — a netlist's
/// register bank — lets each of its reads reach every one of its writes:
/// more conservative, never unsound.
pub fn influence_adjacency(design: &Design) -> Vec<Vec<SignalId>> {
    let mut adj: Vec<Vec<SignalId>> = vec![Vec::new(); design.num_signals()];
    for node in design.rtl_nodes() {
        for &i in &node.inputs {
            adj[i.index()].push(node.output);
        }
    }
    for node in design.behavioral_nodes() {
        let mut sources = node.reads.clone();
        sources.extend(node.activation_signals());
        sources.sort_unstable();
        sources.dedup();
        for &s in &sources {
            adj[s.index()].extend(node.writes.iter().copied());
        }
    }
    adj
}

/// Per-signal structural observability: `true` iff the signal has a path
/// to a primary output in the [influence graph](influence_adjacency)
/// (outputs themselves included). A fault sited on an unobservable signal
/// can never produce a detectable output mismatch — no engine needs to
/// simulate it.
pub fn observable_signals(design: &Design) -> Vec<bool> {
    let n = design.num_signals();
    // Reverse the influence edges, then flood backwards from the outputs.
    let mut rev: Vec<Vec<SignalId>> = vec![Vec::new(); n];
    for (s, dsts) in influence_adjacency(design).iter().enumerate() {
        for &d in dsts {
            rev[d.index()].push(SignalId::from_index(s));
        }
    }
    let mut observable = vec![false; n];
    let mut stack: Vec<SignalId> = Vec::new();
    for &o in design.outputs() {
        if !observable[o.index()] {
            observable[o.index()] = true;
            stack.push(o);
        }
    }
    while let Some(s) = stack.pop() {
        for &p in &rev[s.index()] {
            if !observable[p.index()] {
                observable[p.index()] = true;
                stack.push(p);
            }
        }
    }
    observable
}

/// Per-signal activation locality: `true` iff the signal is a temporary
/// whose committed value no reader ever sees. Such a signal
///
/// * is written by exactly one behavioral node and driven by no RTL node;
/// * is not a port, has no RTL, level or edge fanout, and no other node
///   reads it;
/// * is, inside its writer, fully written by a blocking assignment before
///   every read of it, on every path. A read is a condition, a case label,
///   a right-hand side, an index, or the target of a partial write.
///
/// The last rule is definite assignment: the paths of an `if` or `case`
/// join by intersection, a missing `else` or `default` joins with the
/// fall-through, writes in a `for` body or step are not definite after the
/// loop (it may run zero times), and a non-blocking write never counts.
///
/// Every read of an activation-local signal therefore resolves from the
/// activation's own blocking writes, so a stuck-at sited on it changes no
/// value any execution computes and reaches no output.
pub fn activation_local_signals(design: &Design) -> Vec<bool> {
    let n = design.num_signals();
    let writer = |s: SignalId| match design.driver(s) {
        Some(Driver::Behavioral(b)) => Some(b.index()),
        _ => None,
    };
    let mut read_elsewhere = vec![false; n];
    for (b, node) in design.behavioral_nodes().iter().enumerate() {
        for &s in &node.reads {
            read_elsewhere[s.index()] |= writer(s) != Some(b);
        }
    }
    let mut local = vec![false; n];
    for (b, node) in design.behavioral_nodes().iter().enumerate() {
        for &t in &node.writes {
            local[t.index()] = writer(t) == Some(b)
                && design.signal(t).port.is_none()
                && !read_elsewhere[t.index()]
                && design.rtl_fanout(t).is_empty()
                && design.level_fanout(t).is_empty()
                && design.edge_fanout(t).is_empty()
                && written_before_read(&node.body, t, false).is_some();
        }
    }
    local
}

/// Definite assignment of `t` through `stmt`, entered with `t` written on
/// every path (`written`) or not: `None` if some read of `t` may see it
/// unwritten, else whether every path out of `stmt` has written it.
fn written_before_read(stmt: &Stmt, t: SignalId, written: bool) -> Option<bool> {
    let reads = |e: &Expr| {
        let mut hit = false;
        e.for_each_read(&mut |s, _| hit |= s == t);
        hit
    };
    let guard = |read: bool| (written || !read).then_some(());
    let walk = |s: &Stmt, w: bool| written_before_read(s, t, w);
    match stmt {
        Stmt::Block(stmts) => stmts.iter().try_fold(written, |w, s| walk(s, w)),
        Stmt::Assign {
            lhs, rhs, blocking, ..
        } => {
            let mut lhs_reads = Vec::new();
            lhs.collect_reads(&mut lhs_reads);
            guard(reads(rhs) || lhs_reads.contains(&t))?;
            Some(written || (*blocking && *lhs == LValue::Full(t)))
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            guard(reads(cond))?;
            let then_w = walk(then_s, written)?;
            let else_w = match else_s {
                Some(e) => walk(e, written)?,
                None => written,
            };
            Some(then_w && else_w)
        }
        Stmt::Case {
            scrutinee,
            arms,
            default,
            ..
        } => {
            guard(reads(scrutinee) || arms.iter().flat_map(|a| &a.labels).any(reads))?;
            let mut all = match default {
                Some(d) => walk(d, written)?,
                None => written,
            };
            for arm in arms {
                all &= walk(&arm.body, written)?;
            }
            Some(all)
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            // Every iteration enters the condition and body with at least
            // what `init` wrote, so checking the first one checks them all.
            let w = walk(init, written)?;
            if !w && reads(cond) {
                return None;
            }
            walk(step, walk(body, w)?)?;
            Some(w)
        }
        Stmt::Nop => Some(written),
    }
}

/// Per-signal, per-bit read coverage: `cover[s][i]` is `true` iff some
/// reader of signal `s` may observe bit `i` — or `s` is a primary output
/// (outputs are observed whole). A fault on an uncovered bit can never
/// produce a difference anywhere: no expression, node input, activation
/// test or output observation ever looks at it.
///
/// The analysis is a conservative one-step read census, precise where
/// bit extents are static and whole-signal otherwise:
///
/// * behavioral `Slice` reads cover exactly `lo..=hi` (the elaborator
///   lowers constant bit and indexed-part selects to slices); the dynamic
///   `Index` and `IndexedPart` cover the whole base signal;
/// * every other expression reference covers its signal whole (arithmetic
///   X-semantics can let any input bit poison the result);
/// * a narrowing RTL `Buf` covers only the bits it carries through —
///   truncated high bits are discarded before any operator sees them;
///   every other RTL node covers its inputs whole;
/// * activation/sensitivity signals are covered whole (a change on any
///   bit can re-trigger the block).
///
/// Coverage is *not* transitively closed over liveness — combine with
/// [`observable_signals`] for signal-level dead-cone removal.
pub fn read_bit_coverage(design: &Design) -> Vec<Vec<bool>> {
    let mut cover: Vec<Vec<bool>> = design
        .signals()
        .iter()
        .map(|s| vec![false; s.width as usize])
        .collect();
    let mark_all = |cover: &mut Vec<Vec<bool>>, s: SignalId| {
        for b in cover[s.index()].iter_mut() {
            *b = true;
        }
    };

    for node in design.rtl_nodes() {
        if let crate::RtlOp::Buf = node.op {
            if node.inputs.len() == 1 {
                let b = node.inputs[0];
                let carried = design.signal(node.output).width.min(design.signal(b).width) as usize;
                for bit in cover[b.index()].iter_mut().take(carried) {
                    *bit = true;
                }
                continue;
            }
        }
        for &i in &node.inputs {
            mark_all(&mut cover, i);
        }
    }
    for node in design.behavioral_nodes() {
        mark_stmt_bit_reads(&node.body, &mut cover);
        for s in node.activation_signals() {
            mark_all(&mut cover, s);
        }
    }
    for &o in design.outputs() {
        mark_all(&mut cover, o);
    }
    cover
}

/// Marks the bits `expr` reads: a constant part select its range, any
/// other reference (dynamic selects included) the whole signal.
fn mark_expr_bit_reads(expr: &Expr, cover: &mut [Vec<bool>]) {
    expr.for_each_read(&mut |s, (lo, hi)| {
        let bits = &mut cover[s.index()];
        let end = (hi as usize).saturating_add(1).min(bits.len());
        for b in &mut bits[(lo as usize).min(end)..end] {
            *b = true;
        }
    });
}

fn mark_stmt_bit_reads(stmt: &crate::Stmt, cover: &mut [Vec<bool>]) {
    use crate::{LValue, Stmt};
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                mark_stmt_bit_reads(s, cover);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            mark_expr_bit_reads(rhs, cover);
            // Partial-write positions are reads; the written base bits are
            // not (the carried-over bits flow value-preserving, they do
            // not spread a difference to other bits).
            match lhs {
                LValue::Full(_) | LValue::PartSelect { .. } => {}
                LValue::BitSelect { index, .. } => mark_expr_bit_reads(index, cover),
                LValue::IndexedPart { start, .. } => mark_expr_bit_reads(start, cover),
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            mark_expr_bit_reads(cond, cover);
            mark_stmt_bit_reads(then_s, cover);
            if let Some(e) = else_s {
                mark_stmt_bit_reads(e, cover);
            }
        }
        Stmt::Case {
            scrutinee,
            arms,
            default,
            ..
        } => {
            mark_expr_bit_reads(scrutinee, cover);
            for arm in arms {
                for l in &arm.labels {
                    mark_expr_bit_reads(l, cover);
                }
                mark_stmt_bit_reads(&arm.body, cover);
            }
            if let Some(d) = default {
                mark_stmt_bit_reads(d, cover);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            mark_stmt_bit_reads(init, cover);
            mark_expr_bit_reads(cond, cover);
            mark_stmt_bit_reads(step, cover);
            mark_stmt_bit_reads(body, cover);
        }
        Stmt::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignBuilder, PortDir, SignalKind};
    use crate::expr::Expr;
    use crate::ids::SignalId;

    #[test]
    fn widths_follow_model() {
        let w = |_: SignalId| 8u32;
        assert_eq!(expr_width_with(&Expr::val(4, 1), &w), 4);
        assert_eq!(expr_width_with(&Expr::sig(SignalId(0)), &w), 8);
        assert_eq!(
            expr_width_with(
                &Expr::bin(BinaryOp::Add, Expr::sig(SignalId(0)), Expr::val(16, 1)),
                &w
            ),
            16
        );
        assert_eq!(
            expr_width_with(
                &Expr::bin(BinaryOp::Eq, Expr::sig(SignalId(0)), Expr::val(16, 1)),
                &w
            ),
            1
        );
        assert_eq!(
            expr_width_with(
                &Expr::bin(BinaryOp::Shl, Expr::sig(SignalId(0)), Expr::val(16, 1)),
                &w
            ),
            8
        );
        assert_eq!(
            expr_width_with(&Expr::Concat(vec![Expr::val(4, 0), Expr::val(4, 0)]), &w),
            8
        );
        assert_eq!(
            expr_width_with(&Expr::Replicate(3, Box::new(Expr::val(2, 0))), &w),
            6
        );
        assert_eq!(
            expr_width_with(
                &Expr::Slice {
                    base: SignalId(0),
                    hi: 6,
                    lo: 2
                },
                &w
            ),
            5
        );
        assert_eq!(
            expr_width_with(&Expr::un(UnaryOp::RedXor, Expr::sig(SignalId(0))), &w),
            1
        );
    }

    #[test]
    fn rtl_widths_and_arity() {
        assert_eq!(rtl_output_width(&RtlOp::Buf, &[8]), Some(8));
        assert_eq!(rtl_output_width(&RtlOp::Buf, &[8, 8]), None);
        assert_eq!(
            rtl_output_width(&RtlOp::Binary(BinaryOp::Add), &[8, 16]),
            Some(16)
        );
        assert_eq!(
            rtl_output_width(&RtlOp::Binary(BinaryOp::Lt), &[8, 16]),
            Some(1)
        );
        assert_eq!(rtl_output_width(&RtlOp::Mux, &[1, 8, 8]), Some(8));
        assert_eq!(rtl_output_width(&RtlOp::Mux, &[1, 8]), None);
        assert_eq!(
            rtl_output_width(&RtlOp::Slice { hi: 3, lo: 1 }, &[8]),
            Some(3)
        );
        assert_eq!(rtl_output_width(&RtlOp::Index, &[8, 3]), Some(1));
        assert_eq!(rtl_output_width(&RtlOp::Replicate(4), &[2]), Some(8));
    }

    #[test]
    fn influence_and_observability() {
        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 4, PortDir::Input);
        let q = b.add_port("q", 4, PortDir::Output);
        let dead = b.add_signal("dead", 4, SignalKind::Wire);
        b.add_rtl_node(RtlOp::Buf, vec![a], q);
        b.add_rtl_node(RtlOp::Buf, vec![a], dead);
        let d = b.finish().unwrap();
        let adj = influence_adjacency(&d);
        assert!(adj[a.index()].contains(&q));
        assert!(adj[a.index()].contains(&dead));
        assert!(adj[q.index()].is_empty());
        let obs = observable_signals(&d);
        assert!(obs[a.index()], "a reaches q");
        assert!(obs[q.index()], "outputs observe themselves");
        assert!(!obs[dead.index()], "dead drives nothing");
    }

    #[test]
    fn read_bit_coverage_tracks_static_extents() {
        use crate::node::Sensitivity;
        use crate::stmt::Stmt;

        let mut b = DesignBuilder::new("t");
        let a = b.add_port("a", 8, PortDir::Input);
        let s = b.add_signal("s", 8, SignalKind::Wire);
        let n = b.add_signal("n", 4, SignalKind::Wire);
        let q = b.add_port_reg("q", 4, PortDir::Output);
        let clk = b.add_port("clk", 1, PortDir::Input);
        b.add_rtl_node(RtlOp::Buf, vec![a], s);
        // Narrowing buffer: only s[3:0] carried through.
        b.add_rtl_node(RtlOp::Buf, vec![s], n);
        // Behavioral slice read: only a[5:4] beyond the full read of a by
        // the first Buf... a is read whole there, so slice-precision is
        // checked on q's source n via a bit select.
        b.add_behavioral(
            "q",
            Sensitivity::Edges(vec![(crate::EdgeKind::Pos, clk)]),
            Stmt::assign(
                q,
                Expr::Concat(vec![
                    Expr::val(3, 0),
                    Expr::Slice {
                        base: n,
                        hi: 1,
                        lo: 1,
                    },
                ]),
                false,
            ),
        );
        let d = b.finish().unwrap();
        let cover = read_bit_coverage(&d);
        // a: read whole by the widening... same-width Buf.
        assert!(cover[a.index()].iter().all(|&r| r));
        // s: only the low 4 bits survive the narrowing Buf.
        assert_eq!(
            cover[s.index()],
            vec![true, true, true, true, false, false, false, false]
        );
        // n: only bit 1 is read (constant bit select).
        assert_eq!(cover[n.index()], vec![false, true, false, false]);
        // q: outputs are observed whole.
        assert!(cover[q.index()].iter().all(|&r| r));
        // clk: sensitivity signals are covered whole.
        assert!(cover[clk.index()][0]);
    }
}
