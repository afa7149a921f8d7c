//! Behavioral node simulation (Fig. 4 steps ④⑤⑥), the fault side: which
//! networks an edge fires (deferred edge detection, for every
//! diff-carrying fault beside the kernel's good check), the good execution
//! under Algorithm 1's redundancy monitor, candidate selection, the
//! individual executions of the faults that survive it, and their NBA
//! blocks. Good-only lane 3 lives here.

use super::workspace::{Activation, Workspace};
use super::{EngineState, Phase};
use crate::diff::union_ids_into;
use crate::diff::FaultView;
use crate::monitor::RedundancyMonitor;
use crate::RedundancyMode;
use eraser_fault::{Fault, FaultId, StuckAt};
use eraser_ir::{BehavioralId, BehavioralNode, EdgeKind, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{ExecCtx, ExecOutcome, Good, NoopMonitor, ValueStore};

/// The activation of a level-sensitive node: it fires in every network.
static LEVEL: Activation = Activation {
    good: true,
    fault_only: Vec::new(),
    suppressed: Vec::new(),
};

/// The faults sited on one activation-local signal, as one bit mask per
/// polarity: bit `i` of word `w` is set when a stuck-at sits on bit
/// `64 w + i`. They are never dropped — no diff of theirs ever reaches an
/// output — so the masks are fixed at engine build.
pub(super) struct LocalSites {
    sig: SignalId,
    sa0: Vec<u64>,
    sa1: Vec<u64>,
}

impl LocalSites {
    pub(super) fn new(sig: SignalId, width: u32) -> Self {
        let words = width.div_ceil(64) as usize;
        LocalSites {
            sig,
            sa0: vec![0; words],
            sa1: vec![0; words],
        }
    }

    /// Takes `f` into the masks, unless a fault of the same site and
    /// polarity is already there: a duplicate stays materialized, so every
    /// mask bit counts exactly one fault.
    pub(super) fn claim(&mut self, f: &Fault) -> bool {
        let mask = match f.stuck {
            StuckAt::Zero => &mut self.sa0,
            StuckAt::One => &mut self.sa1,
        };
        let (w, bit) = ((f.bit / 64) as usize, 1u64 << (f.bit % 64));
        let free = mask[w] & bit == 0;
        mask[w] |= bit;
        free
    }

    pub(super) fn is_empty(&self) -> bool {
        self.sa0.iter().chain(&self.sa1).all(|&m| m == 0)
    }

    /// How many of these faults forcing `good` would change
    /// ([`Fault::changes`]): a stuck-at-0 where the bit is not `0`, a
    /// stuck-at-1 where it is not `1`.
    fn visible(&self, good: &LogicVec) -> u64 {
        let planes = good.avals().iter().zip(good.bvals());
        self.sa0
            .iter()
            .zip(&self.sa1)
            .zip(planes)
            .map(|((m0, m1), (a, b))| (m0 & (a | b)).count_ones() + (m1 & (!a | b)).count_ones())
            .map(u64::from)
            .sum()
    }
}

impl EngineState<'_> {
    /// The faults' side of deferred edge detection for an edge-triggered
    /// node whose `terms` are on signals that changed this delta:
    /// evaluated once, after the active region has settled, for every
    /// diff-carrying fault together — the generalization that prevents
    /// the paper's *fake events*. Records the node's [`Activation`] and
    /// returns whether any network fired.
    pub(super) fn classify_edge<'a>(
        &mut self,
        ws: &mut Workspace,
        good: &Good<'_>,
        terms: impl Iterator<Item = &'a (EdgeKind, SignalId)> + Clone,
        good_fired: bool,
    ) -> bool {
        // Faults with differences (past or present) on any term signal
        // may diverge from the good activation; with none on any of them
        // every network fires exactly when the good one does.
        let diverge = terms.clone().any(|(_, s)| {
            !self.edge_prev_diffs[s.index()].is_empty() || !self.diffs[s.index()].is_empty()
        });
        if !(diverge || good_fired) {
            return false;
        }
        let mut act = ws.acts.take();
        act.good = good_fired;
        let mut cands = ws.ids.take();
        if diverge {
            union_ids_into(
                terms
                    .clone()
                    .flat_map(|(_, s)| [&self.edge_prev_diffs[s.index()], &self.diffs[s.index()]]),
                &self.alive,
                &mut cands,
            );
        }
        for &f in &cands {
            let mut fault_fired = false;
            for &(kind, s) in terms.clone() {
                let prev = self.edge_prev_diffs[s.index()].view(f, good.edge_prev(s));
                let cur = self.diffs[s.index()].view(f, good.values().get(s));
                if kind.matches(prev.bit_or_x(0), cur.bit_or_x(0)) {
                    fault_fired = true;
                }
            }
            match (good_fired, fault_fired) {
                (true, false) => act.suppressed.push(f),
                (false, true) => act.fault_only.push(f),
                _ => {}
            }
        }
        ws.ids.put(cands);
        if act.good || !act.fault_only.is_empty() {
            self.acts.push(act);
            true
        } else {
            ws.acts.put(act);
            false
        }
    }

    /// The faults sited on activation-local signals node `id` reads whose
    /// force is visible on the committed good value: exactly the
    /// candidates the materialized diffs would have added, all of which
    /// Algorithm 1 skips — every read of the signal resolves from the
    /// activation's own blocking writes.
    fn visible_local_faults(&self, good: &ValueStore, id: BehavioralId) -> u64 {
        self.local_sites[id.index()]
            .iter()
            .map(|l| l.visible(good.get(l.sig)))
            .sum()
    }

    /// Processes one behavioral activation (`edge`: see
    /// [`Hook::activate`](eraser_sim::Hook::activate)): good execution
    /// into `good_out` (with the redundancy monitor in `Full` mode),
    /// candidate selection, and faulty executions for the non-redundant
    /// faults, whose blocking targets join `targets`. The kernel then
    /// commits every target, in target order.
    ///
    /// **Good-only lane 3:** when every network fired with the good one
    /// (a good activation never carries `fault_only` faults, so no
    /// `suppressed` ones is the whole test), every signal the node reads or
    /// writes is [clean](Self::clean) and the mode eliminates explicit
    /// redundancy (or no fault is alive), every live fault is a skipped
    /// opportunity — implicitly for the visible faults on activation-local
    /// reads, explicitly for the rest: one unmonitored good execution,
    /// nothing added to the kernel's commits.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn process_activation(
        &mut self,
        ws: &mut Workspace,
        good_net: &Good<'_>,
        ctx: &mut ExecCtx,
        id: BehavioralId,
        edge: Option<usize>,
        good_out: &mut ExecOutcome,
        targets: &mut Vec<SignalId>,
    ) {
        let (eval, good) = (good_net.eval(), good_net.values());
        self.phase = Phase::Activation(edge);
        let act = match edge {
            Some(i) => &self.acts[i],
            None => &LEVEL,
        };
        let node = self.design.behavioral(id);

        let lane = act.good
            && act.suppressed.is_empty()
            && (self.mode != RedundancyMode::None || self.alive_count == 0)
            && node.reads.iter().all(|s| self.clean(*s))
            && node.writes.iter().all(|s| self.clean(*s));
        // The good body runs unmonitored unless Algorithm 1 watches it; where
        // only faults fired it does not run, and writes nothing.
        if !act.good {
            good_out.recycle(&mut ctx.scratch);
        } else if lane || self.mode != RedundancyMode::Full {
            eval.behavioral(id, good, &mut NoopMonitor, ctx, good_out);
        }
        if lane {
            let local = self.visible_local_faults(good, id);
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.explicit_skipped += self.alive_count - local;
            self.stats.implicit_skipped += local;
            return;
        }

        let mut exec_list = ws.ids.take();

        if act.good {
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.suppressed_activations += act.suppressed.len() as u64;

            // Candidate selection (explicit redundancy elimination).
            match self.mode {
                RedundancyMode::None => {
                    exec_list.extend(
                        (0..self.faults.len() as u32)
                            .map(FaultId)
                            .filter(|f| self.alive[f.index()] && !act.suppressed.contains(f)),
                    );
                }
                RedundancyMode::Explicit => {
                    self.input_candidates(node, &act.suppressed, &mut exec_list);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - exec_list.len() as u64;
                }
                RedundancyMode::Full => {
                    let local = self.visible_local_faults(good, id);
                    let mut cands = ws.ids.take();
                    self.input_candidates(node, &act.suppressed, &mut cands);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - cands.len() as u64 - local;
                    self.stats.implicit_skipped += local;
                    let killed = std::mem::take(&mut exec_list);
                    let mut mon = RedundancyMonitor::new(
                        &self.diffs,
                        good,
                        &node.vdg,
                        cands,
                        killed,
                        &mut ws.mon_scratch,
                    );
                    eval.behavioral(id, good, &mut mon, ctx, good_out);
                    let (redundant, must_exec) = mon.into_verdicts();
                    self.stats.implicit_skipped += redundant.len() as u64;
                    exec_list = must_exec;
                    ws.ids.put(redundant);
                }
            }
        }

        // Individual faulty executions: non-redundant candidates plus
        // divergent fault-only activations.
        let survivors = exec_list.len();
        exec_list.extend(
            act.fault_only
                .iter()
                .filter(|f| self.alive[f.index()])
                .copied(),
        );
        self.stats.fault_executions += exec_list.len() as u64;
        self.stats.fault_only_activations += (exec_list.len() - survivors) as u64;
        for &f in &exec_list {
            let mut out = ws.outs.take();
            let view = FaultView::new(&self.diffs, good, f);
            eval.behavioral(id, &view, &mut NoopMonitor, ctx, &mut out);
            targets.extend(out.blocking.iter().map(|(s, _)| *s));
            ws.fault_outs.push((f, out));
        }
        ws.ids.put(exec_list);
    }

    /// Closes an activation after the kernel committed its blocking
    /// targets: its faults' non-blocking effects become the fault side of
    /// its NBA block — queued whenever the good body or an executed fault
    /// wrote one — and the return says whether they did.
    pub(super) fn close_activation(&mut self, ws: &mut Workspace, good_out: &ExecOutcome) -> bool {
        let Phase::Activation(edge) = std::mem::replace(&mut self.phase, Phase::Settle) else {
            unreachable!("an activation is open")
        };
        let mut fault_outs = std::mem::take(&mut ws.fault_outs);
        let queued = !good_out.nba.is_empty() || fault_outs.iter().any(|(_, o)| !o.nba.is_empty());
        if queued {
            let mut block = self.nba_pool.take();
            for (f, o) in fault_outs.iter_mut() {
                let start = block.fault_writes.len() as u32;
                block.fault_writes.append(&mut o.nba);
                block
                    .executed
                    .push((*f, start, block.fault_writes.len() as u32));
            }
            if let Some(i) = edge {
                block.suppressed.extend_from_slice(&self.acts[i].suppressed);
            }
            self.pending_nba.push(block);
        }
        for (_, o) in fault_outs.drain(..) {
            ws.outs.put(o);
        }
        ws.fault_outs = fault_outs;
        queued
    }

    /// Faults with a visible difference on any signal the node reads — the
    /// candidates that survive explicit redundancy elimination. Fills
    /// `out` (cleared first).
    fn input_candidates(
        &self,
        node: &BehavioralNode,
        suppressed: &[FaultId],
        out: &mut Vec<FaultId>,
    ) {
        union_ids_into(
            node.reads.iter().map(|s| &self.diffs[s.index()]),
            &self.alive,
            out,
        );
        out.retain(|f| !suppressed.contains(f));
    }
}
