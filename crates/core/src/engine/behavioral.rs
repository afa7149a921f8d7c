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
use eraser_fault::FaultId;
use eraser_ir::{BehavioralId, BehavioralNode};
use eraser_sim::{ExecOutcome, NoopMonitor};

impl EngineState<'_> {
    /// Processes one behavioral activation: good execution (with the
    /// redundancy monitor in `Full` mode), candidate selection, faulty
    /// executions for the non-redundant faults, blocking commit, and NBA
    /// queuing.
    ///
    /// **Good-only lane 3:** when every network fired with the good one
    /// (a good activation never carries `fault_only` faults, so no
    /// `suppressed` ones is the whole test), every signal the node reads or
    /// writes is [clean](Self::clean) and the mode eliminates explicit
    /// redundancy (or no fault is alive), every live fault is an explicitly
    /// skipped opportunity: one unmonitored good execution, its blocking
    /// finals committed in target order, its non-blocking writes queued.
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
            self.stats.good_activations += 1;
            self.stats.opportunities += self.alive_count;
            self.stats.explicit_skipped += self.alive_count;
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
                    let mut cands = ws.ids.take();
                    self.input_candidates(node, &act.suppressed, &mut cands);
                    self.stats.explicit_skipped +=
                        self.alive_count - act.suppressed.len() as u64 - cands.len() as u64;
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
