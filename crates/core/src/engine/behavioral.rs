//! Behavioral node simulation (Fig. 4 steps ④⑤⑥): the good execution
//! under Algorithm 1's redundancy monitor, candidate selection, and the
//! individual executions of the faults that survive it. Good-only lane 3
//! lives here.

use super::workspace::{Activation, Workspace};
use super::EngineState;
use crate::diff::union_ids_into;
use crate::diff::FaultView;
use crate::monitor::RedundancyMonitor;
use crate::RedundancyMode;
use eraser_fault::{Fault, FaultId, StuckAt};
use eraser_ir::{BehavioralId, BehavioralNode, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{ExecOutcome, NoopMonitor};

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
    /// The faults sited on activation-local signals node `id` reads whose
    /// force is visible on the committed good value: exactly the
    /// candidates the materialized diffs would have added, all of which
    /// Algorithm 1 skips — every read of the signal resolves from the
    /// activation's own blocking writes.
    fn visible_local_faults(&self, id: BehavioralId) -> u64 {
        self.local_sites[id.index()]
            .iter()
            .map(|l| l.visible(self.good.get(l.sig)))
            .sum()
    }

    /// Processes one behavioral activation: good execution (with the
    /// redundancy monitor in `Full` mode), candidate selection, faulty
    /// executions for the non-redundant faults, blocking commit, and NBA
    /// queuing.
    ///
    /// **Good-only lane 3:** when every network fired with the good one
    /// (a good activation never carries `fault_only` faults, so no
    /// `suppressed` ones is the whole test), every signal the node reads or
    /// writes is [clean](Self::clean) and the mode eliminates explicit
    /// redundancy (or no fault is alive), every live fault is a skipped
    /// opportunity — implicitly for the visible faults on activation-local
    /// reads, explicitly for the rest: one unmonitored good execution, its
    /// blocking finals committed in target order, its non-blocking writes
    /// queued.
    pub(super) fn process_activation(
        &mut self,
        ws: &mut Workspace,
        id: BehavioralId,
        act: &Activation,
    ) {
        let node = self.design.behavioral(id);
        let mut good_out = ws.outs.take();

        let lane = act.good
            && act.suppressed.is_empty()
            && (self.mode != RedundancyMode::None || self.alive_count == 0)
            && node.reads.iter().all(|s| self.clean(*s))
            && node.writes.iter().all(|s| self.clean(*s));
        // The good body runs unmonitored unless Algorithm 1 watches it.
        if act.good && (lane || self.mode != RedundancyMode::Full) {
            self.eval.behavioral(
                id,
                &self.good,
                &mut NoopMonitor,
                &mut ws.exec_ctx,
                &mut good_out,
            );
        }
        if lane {
            let local = self.visible_local_faults(id);
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.explicit_skipped += self.alive_count - local;
            self.stats.implicit_skipped += local;
            good_out.blocking.sort_unstable_by_key(|(t, _)| *t);
            for (t, v) in &good_out.blocking {
                self.commit_signal(ws, *t, v, &[], true);
            }
            self.queue_nba(&mut good_out, &mut [], &[]);
            ws.outs.put(good_out);
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
                    let local = self.visible_local_faults(id);
                    let mut cands = ws.ids.take();
                    self.input_candidates(node, &act.suppressed, &mut cands);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - cands.len() as u64 - local;
                    self.stats.implicit_skipped += local;
                    let killed = std::mem::take(&mut exec_list);
                    let mut mon = RedundancyMonitor::new(
                        &self.diffs,
                        &self.good,
                        &node.vdg,
                        cands,
                        killed,
                        &mut ws.mon_scratch,
                    );
                    self.eval
                        .behavioral(id, &self.good, &mut mon, &mut ws.exec_ctx, &mut good_out);
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
        let mut fault_outs = std::mem::take(&mut ws.fault_outs);
        for &f in &exec_list {
            let mut out = ws.outs.take();
            let view = FaultView::new(&self.diffs, &self.good, f);
            self.eval
                .behavioral(id, &view, &mut NoopMonitor, &mut ws.exec_ctx, &mut out);
            fault_outs.push((f, out));
        }

        self.commit_blocking(ws, act, &good_out, &fault_outs);

        self.queue_nba(&mut good_out, &mut fault_outs, &act.suppressed);

        for (_, o) in fault_outs.drain(..) {
            ws.outs.put(o);
        }
        ws.fault_outs = fault_outs;
        ws.outs.put(good_out);
        ws.ids.put(exec_list);
    }

    /// Queues one activation's non-blocking effects for the NBA region.
    fn queue_nba(
        &mut self,
        good_out: &mut ExecOutcome,
        fault_outs: &mut [(FaultId, ExecOutcome)],
        suppressed: &[FaultId],
    ) {
        if good_out.nba.is_empty() && fault_outs.iter().all(|(_, o)| o.nba.is_empty()) {
            return;
        }
        let mut block = self.nba_pool.take();
        block.good_writes.append(&mut good_out.nba);
        for (f, o) in fault_outs.iter_mut() {
            let start = block.fault_writes.len() as u32;
            block.fault_writes.append(&mut o.nba);
            block
                .executed
                .push((*f, start, block.fault_writes.len() as u32));
        }
        block.suppressed.extend(suppressed.iter().copied());
        self.pending_nba.push(block);
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
