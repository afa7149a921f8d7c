//! Deferred edge detection (between Fig. 4 steps ③ and ④): which
//! edge-triggered behavioral nodes fire this delta, in the good network
//! and in every fault's.

use super::workspace::Workspace;
use super::EngineState;
use crate::diff::union_ids_into;
use eraser_ir::Sensitivity;

impl EngineState<'_> {
    /// Evaluates event expressions once per delta, after the active region
    /// has settled, for the good values and every diff-carrying fault
    /// together — the generalization of deferred edge detection that
    /// prevents the paper's *fake events*. Fills `ws.act_list` and returns
    /// its length.
    pub(super) fn detect_edges(&mut self, ws: &mut Workspace) -> usize {
        std::mem::swap(&mut self.watch_changed, &mut ws.changed);
        if ws.changed.is_empty() {
            return 0;
        }
        let design = self.design;
        let n_sig = design.num_signals();
        if ws.changed_flag.len() < n_sig {
            ws.changed_flag.resize(n_sig, false);
        }
        ws.nodes.clear();
        for i in 0..ws.changed.len() {
            let sig = ws.changed[i];
            self.watch_flag[sig.index()] = false;
            ws.changed_flag[sig.index()] = true;
            for &b in design.edge_fanout(sig) {
                if !self.edge_queued[b.index()] {
                    self.edge_queued[b.index()] = true;
                    ws.nodes.push(b);
                }
            }
        }

        for ni in 0..ws.nodes.len() {
            let b = ws.nodes[ni];
            self.edge_queued[b.index()] = false;
            let node = design.behavioral(b);
            let Sensitivity::Edges(edges) = &node.sensitivity else {
                continue;
            };
            // Terms on signals that changed this delta.
            ws.terms.clear();
            ws.terms.extend(
                edges
                    .iter()
                    .filter(|(_, s)| ws.changed_flag[s.index()])
                    .copied(),
            );
            if ws.terms.is_empty() {
                continue;
            }
            let mut good_fired = false;
            for ti in 0..ws.terms.len() {
                let (kind, s) = ws.terms[ti];
                let prev = self.edge_prev_good[s.index()].bit_or_x(0);
                let cur = self.good.get(s).bit_or_x(0);
                if kind.matches(prev, cur) {
                    good_fired = true;
                }
            }
            let mut act = ws.acts.take();
            act.good = good_fired;
            // Faults with differences (past or present) on any term signal
            // may diverge from the good activation; with none on any of
            // them every network fires exactly when the good one does.
            let mut cands = ws.ids.take();
            if ws.terms.iter().any(|(_, s)| {
                !self.edge_prev_diffs[s.index()].is_empty() || !self.diffs[s.index()].is_empty()
            }) {
                union_ids_into(
                    ws.terms.iter().flat_map(|(_, s)| {
                        [&self.edge_prev_diffs[s.index()], &self.diffs[s.index()]]
                    }),
                    &self.alive,
                    &mut cands,
                );
            }
            for &f in &cands {
                let mut fault_fired = false;
                for &(kind, s) in edges.iter() {
                    // Unchanged signals contribute no transition for the
                    // fault either (its view there is stable this delta).
                    if !ws.changed_flag[s.index()] {
                        continue;
                    }
                    let prev = self.edge_prev_diffs[s.index()]
                        .get(f)
                        .map(|v| v.bit_or_x(0))
                        .unwrap_or_else(|| self.edge_prev_good[s.index()].bit_or_x(0));
                    let cur = self.diffs[s.index()]
                        .get(f)
                        .map(|v| v.bit_or_x(0))
                        .unwrap_or_else(|| self.good.get(s).bit_or_x(0));
                    if kind.matches(prev, cur) {
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
                ws.act_list.push((b, act));
            } else {
                ws.acts.put(act);
            }
        }
        // Latch the settled values for the next detection point and reset
        // the changed flags.
        for i in 0..ws.changed.len() {
            let sig = ws.changed[i];
            ws.changed_flag[sig.index()] = false;
            self.edge_prev_good[sig.index()].assign_from(self.good.get(sig));
            self.edge_prev_diffs[sig.index()].assign_from(&self.diffs[sig.index()]);
        }
        ws.changed.clear();
        ws.act_list.len()
    }
}
