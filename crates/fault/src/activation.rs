//! Fault activation-window analysis — the temporal axis of execution
//! redundancy.
//!
//! Serial per-fault simulation re-executes the entire fault-free prefix of
//! the stimulus before each fault's first possible divergence. This module
//! derives, from one instrumented good replay (an `eraser-sim`
//! [`SiteProbe`]), the **activation window** of every fault: the earliest
//! stimulus step at which the fault's network can first diverge from the
//! good network. A checkpointed campaign then starts each fault from the
//! latest good-state checkpoint preceding its window instead of step 0 —
//! and skips outright any fault whose window lies beyond the stimulus.
//!
//! # Soundness model
//!
//! A stuck-at fault is injected as a force that is re-applied on every
//! write of the sited signal. While every committed value of the sited bit
//! *equals* the stuck value, the force is a no-op and the fault network is
//! **bit-identical** to the good network — strictly dormant. The first
//! commit whose defined value *contradicts* the stuck polarity is the
//! contradiction point `c(f)` (commit-granular: the probe sees transients
//! inside a settle step, not just settled values).
//!
//! Power-on `X` complicates this: forcing an unknown bit to a defined
//! value makes the fault network a *refinement* of the good network
//! (defined where the good run has `X`, identical elsewhere). Four-state
//! RTL evaluation is monotone under refinement **except** at the X hazards
//! the probe records (unknown-sensitive branch decisions, unknown dynamic
//! write indices, `X` on edge-watched bits, incomplete sensitivity lists)
//! and at `===`/`!==` expressions, which this module poisons statically.
//! While no hazard reachable from the fault site has occurred, the
//! refinement is *benign*: it cannot flip a decision, fire a different
//! edge, or produce a detectable output mismatch (detection requires
//! defined values on both sides). The window is therefore
//!
//! ```text
//! w(f) = c(f)                       if the site bit is never unknown
//! w(f) = min(c(f), h(f))            otherwise
//! ```
//!
//! where `h(f)` is the first X-hazard step on any signal statically
//! reachable from the fault site through the design's influence graph.
//!
//! # Restart eligibility
//!
//! Starting fault `f` from a checkpoint at step `b` (the good state after
//! steps `0..b`) reproduces the from-zero fault run bit-for-bit iff the
//! fault state at `b` equals the forced good state at `b`. That holds when
//! `b ≤ w(f)` **and** either the site bit has not yet been unknown
//! (`b ≤ x(f)`: strict dormancy, the states are equal outright) or the
//! good state at `b` is *fully defined* (a benign refinement of a fully
//! defined state is the state itself). [`ActivationWindows::eligible_start`]
//! encodes exactly this rule; checkpoint step 0 (the construction-settled
//! state) is always eligible, which is what makes the checkpointed
//! protocol a strict generalization of force-at-construction injection.

use crate::{FaultId, FaultList, StuckAt};
use eraser_ir::analysis::influence_adjacency;
use eraser_ir::{BinaryOp, Design, Expr, LValue, RtlOp, SignalId, Stmt};
use eraser_sim::{SiteProbe, NEVER};

/// Per-fault activation windows over one `(design, stimulus)` replay. See
/// the module docs of `activation.rs` for the derivation and soundness
/// argument.
#[derive(Debug, Clone)]
pub struct ActivationWindows {
    /// Per fault: earliest step the fault may diverge ([`NEVER`] = not
    /// within this stimulus).
    windows: Vec<usize>,
    /// Per fault: first step the site bit committed an unknown ([`NEVER`]
    /// = never — the fault is strictly dormant until its window).
    site_x: Vec<usize>,
    /// Stimulus length in settle steps.
    num_steps: usize,
    /// Fault ids sorted by ascending window (ties by id), computed once at
    /// derivation — the window planner reads this cache instead of
    /// re-sorting.
    order: Vec<FaultId>,
}

impl ActivationWindows {
    /// Derives the windows of `faults` from a completed good-replay probe.
    ///
    /// Fault sites the probe did not track are given window 0
    /// (conservative). Faults whose bit lies outside their signal's width
    /// are inert and get [`NEVER`].
    pub fn derive(
        design: &Design,
        faults: &FaultList,
        probe: &SiteProbe,
        num_steps: usize,
    ) -> Self {
        let n = design.num_signals();
        // Per-signal first-hazard step: dynamic probe hazards plus the
        // static `===`/`!==` poison (case equality is not monotone under
        // X refinement, so any signal feeding one is hazardous from the
        // start).
        let mut hazard: Vec<usize> = (0..n)
            .map(|i| probe.hazard_step(SignalId::from_index(i)))
            .collect();
        let mut poison_buf = Vec::new();
        poison_case_eq(design, &mut hazard, &mut poison_buf);

        let adj = influence_adjacency(design);
        // Cache the reachable-hazard minimum per unique site signal.
        let mut site_hazard: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut stack = Vec::new();

        let mut windows = Vec::with_capacity(faults.len());
        let mut site_x = Vec::with_capacity(faults.len());
        for f in faults.iter() {
            let (w, x) = match probe.site_firsts(f.signal) {
                None => (0, 0),
                Some(firsts) if f.bit as usize >= firsts.len() => (NEVER, NEVER),
                Some(firsts) => {
                    let bf = firsts[f.bit as usize];
                    let c = match f.stuck {
                        StuckAt::Zero => bf.one,
                        StuckAt::One => bf.zero,
                    };
                    if bf.x == NEVER {
                        (c, NEVER)
                    } else {
                        let h = *site_hazard[f.signal.index()].get_or_insert_with(|| {
                            reachable_min(f.signal, &adj, &hazard, &mut visited, &mut stack)
                        });
                        (c.min(h), bf.x)
                    }
                }
            };
            windows.push(w);
            site_x.push(x);
        }
        let mut order: Vec<FaultId> = (0..windows.len() as u32).map(FaultId).collect();
        order.sort_by_key(|f| (windows[f.index()], f.0));
        ActivationWindows {
            windows,
            site_x,
            num_steps,
            order,
        }
    }

    /// The earliest step `fault` may diverge ([`NEVER`] = not within this
    /// stimulus).
    pub fn window(&self, fault: FaultId) -> usize {
        self.windows[fault.index()]
    }

    /// First step the fault's site bit committed an unknown ([`NEVER`] =
    /// never).
    pub fn first_site_x(&self, fault: FaultId) -> usize {
        self.site_x[fault.index()]
    }

    /// True if the fault provably cannot diverge during the stimulus — it
    /// need not be simulated at all (it is undetected by construction).
    pub fn never_active(&self, fault: FaultId) -> bool {
        self.windows[fault.index()] >= self.num_steps
    }

    /// True if restarting `fault` from the checkpoint at `step` (whose
    /// good state is `fully_defined` or not) is bit-identical to a
    /// from-zero run. Step 0 is always eligible.
    pub fn eligible_start(&self, fault: FaultId, step: usize, fully_defined: bool) -> bool {
        step <= self.windows[fault.index()] && (step <= self.site_x[fault.index()] || fully_defined)
    }

    /// Fault ids ordered by ascending window (ties by id) — the
    /// activation-window schedule: faults sharing a start checkpoint run
    /// consecutively, so the campaign restores each snapshot in one run.
    /// The ordering is computed once in [`derive`](Self::derive); this is
    /// a borrow of that cache.
    pub fn ordered_by_window(&self) -> &[FaultId] {
        &self.order
    }

    /// Copies the cached window ordering into `buf` (cleared first) —
    /// for callers that need an owned, mutable schedule without paying a
    /// fresh sort or allocation beyond the buffer's capacity.
    pub fn order_by_window_into(&self, buf: &mut Vec<FaultId>) {
        buf.clear();
        buf.extend_from_slice(&self.order);
    }

    /// Allocating convenience form of
    /// [`ordered_by_window`](Self::ordered_by_window).
    pub fn order_by_window(&self) -> Vec<FaultId> {
        self.order.clone()
    }

    /// The stimulus length the windows were derived over.
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }
}

impl ActivationWindows {
    /// The latest eligible checkpoint for `fault` among `checkpoints`
    /// (`(step, fully_defined)`, ascending): returns its index.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is eligible — impossible when step 0 is in
    /// the schedule (it always is for interval-based schedules).
    pub fn start_checkpoint(&self, fault: FaultId, checkpoints: &[(usize, bool)]) -> usize {
        checkpoints
            .iter()
            .rposition(|&(step, defined)| self.eligible_start(fault, step, defined))
            .expect("checkpoint 0 is always eligible")
    }
}

/// Minimum hazard step over everything reachable from `from` (inclusive).
fn reachable_min(
    from: SignalId,
    adj: &[Vec<SignalId>],
    hazard: &[usize],
    visited: &mut [bool],
    stack: &mut Vec<SignalId>,
) -> usize {
    visited.fill(false);
    stack.clear();
    stack.push(from);
    visited[from.index()] = true;
    let mut min = NEVER;
    while let Some(s) = stack.pop() {
        min = min.min(hazard[s.index()]);
        if min == 0 {
            break; // cannot get lower
        }
        for &d in &adj[s.index()] {
            if !visited[d.index()] {
                visited[d.index()] = true;
                stack.push(d);
            }
        }
    }
    min
}

/// Marks every signal read by a `===`/`!==` expression as hazardous from
/// step 0 — case equality treats `X === X` as true, so it is not monotone
/// under X refinement and cannot be certified dynamically.
fn poison_case_eq(design: &Design, hazard: &mut [usize], buf: &mut Vec<SignalId>) {
    for node in design.rtl_nodes() {
        if matches!(
            node.op,
            RtlOp::Binary(BinaryOp::CaseEq) | RtlOp::Binary(BinaryOp::CaseNe)
        ) {
            for &i in &node.inputs {
                hazard[i.index()] = 0;
            }
        }
    }
    for node in design.behavioral_nodes() {
        poison_stmt(&node.body, hazard, buf);
    }
}

fn poison_stmt(stmt: &Stmt, hazard: &mut [usize], buf: &mut Vec<SignalId>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                poison_stmt(s, hazard, buf);
            }
        }
        Stmt::Nop => {}
        Stmt::Assign { lhs, rhs, .. } => {
            poison_expr(rhs, hazard, buf);
            match lhs {
                LValue::BitSelect { index, .. } => poison_expr(index, hazard, buf),
                LValue::IndexedPart { start, .. } => poison_expr(start, hazard, buf),
                LValue::Full(_) | LValue::PartSelect { .. } => {}
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            poison_expr(cond, hazard, buf);
            poison_stmt(then_s, hazard, buf);
            if let Some(e) = else_s {
                poison_stmt(e, hazard, buf);
            }
        }
        Stmt::Case {
            scrutinee,
            arms,
            default,
            ..
        } => {
            poison_expr(scrutinee, hazard, buf);
            for arm in arms {
                for l in &arm.labels {
                    poison_expr(l, hazard, buf);
                }
                poison_stmt(&arm.body, hazard, buf);
            }
            if let Some(d) = default {
                poison_stmt(d, hazard, buf);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            poison_stmt(init, hazard, buf);
            poison_expr(cond, hazard, buf);
            poison_stmt(body, hazard, buf);
            poison_stmt(step, hazard, buf);
        }
    }
}

fn poison_expr(e: &Expr, hazard: &mut [usize], buf: &mut Vec<SignalId>) {
    match e {
        Expr::Binary(op, a, b) => {
            if matches!(op, BinaryOp::CaseEq | BinaryOp::CaseNe) {
                buf.clear();
                e.collect_reads(buf);
                for s in buf.drain(..) {
                    hazard[s.index()] = 0;
                }
            } else {
                poison_expr(a, hazard, buf);
                poison_expr(b, hazard, buf);
            }
        }
        Expr::Unary(_, a) | Expr::Replicate(_, a) => poison_expr(a, hazard, buf),
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            poison_expr(cond, hazard, buf);
            poison_expr(then_e, hazard, buf);
            poison_expr(else_e, hazard, buf);
        }
        Expr::Concat(parts) => {
            for p in parts {
                poison_expr(p, hazard, buf);
            }
        }
        Expr::Index { index, .. } => poison_expr(index, hazard, buf),
        Expr::IndexedPart { start, .. } => poison_expr(start, hazard, buf),
        Expr::Const(_) | Expr::Signal(_) | Expr::Slice { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_faults, FaultListConfig};
    use eraser_frontend::compile;
    use eraser_logic::LogicVec;
    use eraser_sim::{ReplaySim, Simulator, StimulusBuilder};

    /// Replays a clocked stimulus on the good simulator with a probe and
    /// derives windows.
    fn probe_windows(src: &str, cycles: usize) -> (Design, FaultList, ActivationWindows) {
        let design = compile(src, None).unwrap();
        let faults = generate_faults(&design, &FaultListConfig::default());
        let clk = design.find_signal("clk").unwrap();
        let rst = design.find_signal("rst");
        let mut sb = StimulusBuilder::new();
        sb.add_cycle(
            clk,
            &rst.map(|r| vec![(r, LogicVec::from_u64(1, 1))])
                .unwrap_or_default(),
        );
        for _ in 0..cycles {
            sb.add_cycle(
                clk,
                &rst.map(|r| vec![(r, LogicVec::from_u64(1, 0))])
                    .unwrap_or_default(),
            );
        }
        let stim = sb.finish();
        let mut sim = Simulator::new(&design);
        sim.attach_probe(eraser_sim::SiteProbe::new(
            &design,
            faults.iter().map(|f| f.signal),
        ));
        for (i, step) in stim.steps.iter().enumerate() {
            sim.begin_probe_step(i);
            sim.replay_step(step);
        }
        let probe = sim.take_probe().unwrap();
        let windows = ActivationWindows::derive(&design, &faults, &probe, stim.steps.len());
        (design, faults, windows)
    }

    use eraser_ir::Design;

    #[test]
    fn counter_low_bits_activate_before_high_bits() {
        // q counts up from 0: bit 0 first holds 1 on the first increment,
        // bit 3 only after 8 increments — sa0 windows are staggered.
        let (design, faults, win) = probe_windows(
            "module m(input wire clk, input wire rst, output reg [3:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 4'h0; else q <= q + 4'h1;
               end
             endmodule",
            12,
        );
        let q = design.find_signal("q").unwrap();
        let window_of = |bit: u32, stuck: StuckAt| {
            let f = faults
                .iter()
                .find(|f| f.signal == q && f.bit == bit && f.stuck == stuck)
                .unwrap();
            win.window(f.id)
        };
        let w0 = window_of(0, StuckAt::Zero);
        let w3 = window_of(3, StuckAt::Zero);
        assert!(w0 > 0, "bit 0 sa0 dormant through reset (got {w0})");
        assert!(w3 > w0, "bit 3 sa0 ({w3}) must open after bit 0 ({w0})");
        // sa1 faults contradict at the reset write of 0.
        let w_sa1 = window_of(0, StuckAt::One);
        assert!(w_sa1 <= w0);
        // Ordering groups by window.
        let order = win.order_by_window();
        assert_eq!(order.len(), faults.len());
        assert!(order
            .windows(2)
            .all(|p| win.window(p[0]) <= win.window(p[1])));
        // The cached borrow and the into-buffer variant agree with it.
        assert_eq!(win.ordered_by_window(), &order[..]);
        let mut buf = vec![FaultId(999)];
        win.order_by_window_into(&mut buf);
        assert_eq!(buf, order);
    }

    #[test]
    fn masked_bits_never_activate() {
        // t[3:2] = 0 always (mask): their sa0 faults can never diverge.
        let (design, faults, win) = probe_windows(
            "module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
               wire [3:0] t;
               assign t = a & 4'h3;
               always @(posedge clk) q <= t;
             endmodule",
            8,
        );
        let t = design.find_signal("t").unwrap();
        let f = faults
            .iter()
            .find(|f| f.signal == t && f.bit == 3 && f.stuck == StuckAt::Zero)
            .unwrap();
        assert!(win.never_active(f.id), "t[3] is constant 0: sa0 is inert");
        // And since t[3] is defined 0 from construction (0 & X = 0), the
        // fault is strictly dormant: no site X at all.
        assert_eq!(win.first_site_x(f.id), NEVER);
        // Its sa1 counterpart contradicts immediately.
        let f1 = faults
            .iter()
            .find(|f| f.signal == t && f.bit == 3 && f.stuck == StuckAt::One)
            .unwrap();
        assert!(!win.never_active(f1.id));
    }

    #[test]
    fn x_decision_hazard_collapses_windows_of_feeding_sites() {
        // The case scrutinee `sel` is a registered value: X at power-on,
        // so the combinational decode hazards at step 0 and every fault
        // able to reach `sel` collapses to window 0. The decode output
        // regs (written by the hazardous block) keep window 0 too, while
        // sites that cannot influence the decision are unaffected.
        let (design, faults, win) = probe_windows(
            "module m(input wire clk, input wire rst, input wire [1:0] a, output reg [3:0] y);
               reg [1:0] sel;
               always @(*) begin
                 case (sel)
                   2'd0: y = 4'h1;
                   2'd1: y = 4'h2;
                   default: y = 4'h4;
                 endcase
               end
               always @(posedge clk) begin
                 if (rst) sel <= 2'h0; else sel <= a;
               end
             endmodule",
            8,
        );
        let sel = design.find_signal("sel").unwrap();
        for f in faults.iter().filter(|f| f.signal == sel) {
            assert_eq!(
                win.window(f.id),
                0,
                "sel faults reach an X-hazardous decision"
            );
        }
    }

    #[test]
    fn eligibility_requires_window_and_definedness() {
        let (_, faults, win) = probe_windows(
            "module m(input wire clk, input wire rst, output reg [3:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 4'h0; else q <= q + 4'h1;
               end
             endmodule",
            12,
        );
        let f = &faults.faults()[0];
        let w = win.window(f.id);
        let x = win.first_site_x(f.id);
        // Step 0 is always eligible.
        assert!(win.eligible_start(f.id, 0, false));
        if w > 0 && w != NEVER {
            // Past the window: never eligible.
            assert!(!win.eligible_start(f.id, w + 1, true));
            // Between the site X and the window: needs a defined state.
            if x < w {
                assert!(!win.eligible_start(f.id, x + 1, false));
                assert!(win.eligible_start(f.id, w, true));
            }
        }
        // start_checkpoint picks the latest eligible one.
        let ckpts = vec![(0usize, false), (2, true), (6, true)];
        let idx = win.start_checkpoint(f.id, &ckpts);
        assert!(win.eligible_start(f.id, ckpts[idx].0, ckpts[idx].1));
        for later in &ckpts[idx + 1..] {
            assert!(!win.eligible_start(f.id, later.0, later.1));
        }
    }
}
