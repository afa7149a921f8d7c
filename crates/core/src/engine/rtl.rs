//! The active region (Fig. 4 steps ②③): dirty RTL nodes evaluated
//! concurrently — the good network once, plus exactly the faults visible
//! at the node — and level-sensitive behavioral nodes handed on to
//! `behavioral.rs`. Good-only lane 2 lives here.

use super::workspace::{Activation, Workspace};
use super::EngineState;
use crate::diff::union_ids_into;
use crate::diff::FaultView;
use eraser_fault::FaultId;
use eraser_ir::{run_batch, RtlNodeId};
use eraser_logic::{LanePlanes, LogicVec};
use std::time::Instant;

/// Smallest batch chunk worth transposing into lane planes; below this the
/// per-chunk fixed cost (lane-word fills plus the 64×64 bit-matrix
/// transposes of the input and output planes, ~400 word operations each)
/// exceeds the scalar evaluations it replaces, so the engine falls back to
/// the scalar path (counted in `RedundancyStats::batch_scalar_fallbacks`).
/// Word-level scalar evaluation already packs a node's full width into one
/// word, so batching only wins where per-fault overheads (tape dispatch,
/// diff-list searches) amortize across well-filled lanes — measured
/// break-even sits near a quarter-full word.
const MIN_BATCH_LANES: usize = 16;

impl EngineState<'_> {
    pub(super) fn settle_active(&mut self, ws: &mut Workspace) {
        // A level-sensitive activation fires in every network at once.
        let act = Activation {
            good: true,
            ..Default::default()
        };
        loop {
            while let Some(id) = self.rtl_queue.pop() {
                self.rtl_dirty[id.index()] = false;
                self.eval_rtl_concurrent(ws, id);
            }
            if self.beh_queue.is_empty() {
                break;
            }
            // RTL nodes go first, so a run of activations ends when one of
            // them schedules an RTL node; the run is timed as a whole.
            let t0 = Instant::now();
            while self.rtl_queue.is_empty() {
                let Some(id) = self.beh_queue.pop() else {
                    break;
                };
                self.beh_dirty[id.index()] = false;
                self.process_activation(ws, id, &act);
            }
            self.stats.time_behavioral += t0.elapsed();
        }
    }

    /// Concurrent evaluation of one RTL node: the good network once, plus
    /// exactly the faults with a visible difference on an input, an
    /// existing (possibly stale) difference on the output, or a fault site
    /// on the output.
    ///
    /// **Good-only lane 2:** with every input and the output
    /// [clean](Self::clean) there is no candidate and nothing to re-force,
    /// so the good evaluation goes straight to the commit — ahead of the
    /// batch/scalar split, so both evaluators take it.
    fn eval_rtl_concurrent(&mut self, ws: &mut Workspace, id: RtlNodeId) {
        let design = self.design;
        let node = design.rtl_node(id);
        let out_width = design.signal(node.output).width;

        let mut good_out = ws.bufs.take_for(out_width);
        self.eval
            .rtl(id, &self.good, &mut ws.rtl_ctx, &mut good_out);
        self.stats.rtl_good_evals += 1;

        if self.clean(node.output) && node.inputs.iter().all(|s| self.clean(*s)) {
            self.commit_signal(ws, node.output, &good_out, &[], true);
            ws.bufs.put(good_out);
            return;
        }

        let mut candidates = ws.ids.take();
        union_ids_into(
            node.inputs
                .iter()
                .map(|s| &self.diffs[s.index()])
                .chain(std::iter::once(&self.diffs[node.output.index()])),
            &self.alive,
            &mut candidates,
        );
        // Sited faults are re-forced by commit_signal; they only need
        // explicit evaluation when an input difference feeds them, which
        // the union above already covers.

        // A candidate with no visible input difference has the good output
        // (explicit redundancy at the RTL node level); only the others stay
        // in `candidates`, to be evaluated by whichever evaluator applies.
        let mut fault_news = ws.news.take();
        candidates.retain(|&f| {
            let any_diff = node
                .inputs
                .iter()
                .any(|s| self.diffs[s.index()].contains(f));
            if !any_diff {
                let mut out_v = ws.bufs.take_for(out_width);
                out_v.assign_from(&good_out);
                fault_news.push((f, out_v));
            }
            any_diff
        });
        self.stats.rtl_fault_evals += candidates.len() as u64;

        let batch_tape = self.batch.and_then(|b| b.rtl(id.index()));
        if let (Some(bt), Some(plan)) = (batch_tape, self.plan.as_ref()) {
            // Bit-parallel path. The candidates are ordered by their static
            // `BatchPlan` slot — site-major, so faults sharing sites (and
            // therefore diff entries) land next to each other — then packed
            // *densely* into 64-lane chunks: a lane is the fault's position
            // in its chunk, so every chunk but the last is full regardless
            // of how candidates spread across static batches, and the
            // per-chunk transpose cost is paid ceil(n/64) times per node
            // evaluation instead of once per static batch touched.
            let mut slots = std::mem::take(&mut ws.slots);
            slots.clear();
            slots.extend(candidates.iter().map(|&f| {
                let (b, l) = plan.slot(f);
                (b, l, f)
            }));
            slots.sort_unstable();

            for chunk in slots.chunks(eraser_logic::LANES as usize) {
                if chunk.len() < MIN_BATCH_LANES {
                    self.stats.batch_scalar_fallbacks += chunk.len() as u64;
                    for &(_, _, f) in chunk {
                        fault_news.push((f, self.eval_rtl_fault(ws, id, out_width, f)));
                    }
                } else {
                    // Input planes: the good value broadcast to every lane,
                    // overridden lane-wise by the visible diff entries —
                    // exactly what each lane's FaultView would read. Lane
                    // values are assembled as per-lane words and transposed
                    // into the plane wholesale (word-level, O(64·log 64))
                    // rather than one bit-level `set_lane` per fault;
                    // diff-free inputs skip the transpose entirely.
                    while ws.planes.len() < node.inputs.len() {
                        ws.planes.push(LanePlanes::new());
                    }
                    let mut la = [0u64; 64];
                    let mut lb = [0u64; 64];
                    for (k, &s) in node.inputs.iter().enumerate() {
                        let plane = &mut ws.planes[k];
                        let gv = self.good.get(s);
                        let dl = &self.diffs[s.index()];
                        if dl.is_empty() {
                            plane.broadcast(gv);
                            continue;
                        }
                        let (ga, gb) = gv.word_planes();
                        la.fill(ga);
                        lb.fill(gb);
                        let mut any_diff_here = false;
                        for (lane, &(_, _, f)) in chunk.iter().enumerate() {
                            if let Some(v) = dl.get(f) {
                                (la[lane], lb[lane]) = v.word_planes();
                                any_diff_here = true;
                            }
                        }
                        if any_diff_here {
                            plane.load_lanes(gv.width(), &mut la, &mut lb);
                        } else {
                            plane.broadcast(gv);
                        }
                    }
                    run_batch(bt, &ws.planes[..node.inputs.len()], &mut ws.out_plane);
                    self.stats.batch_groups += 1;
                    self.stats.batch_lanes += chunk.len() as u64;
                    // One word-level gather of all lanes, then O(1)
                    // word-assigns per fault.
                    ws.out_plane.store_lanes(&mut la, &mut lb);
                    for (lane, &(_, _, f)) in chunk.iter().enumerate() {
                        let mut out_v = ws.bufs.take_for(out_width);
                        out_v.assign_word(out_width, la[lane], lb[lane]);
                        fault_news.push((f, out_v));
                    }
                }
            }
            ws.slots = slots;
        } else {
            if self.batch.is_some() {
                // Batching is on but this node is unbatchable
                // (behavioral-style op, wide signal, shift, …).
                self.stats.batch_scalar_fallbacks += candidates.len() as u64;
            }
            for &f in &candidates {
                fault_news.push((f, self.eval_rtl_fault(ws, id, out_width, f)));
            }
        }
        self.commit_signal(ws, node.output, &good_out, &fault_news, true);
        ws.put_news(fault_news);
        ws.ids.put(candidates);
        ws.bufs.put(good_out);
    }

    /// One fault's scalar RTL evaluation against its view — the per-lane
    /// kernel shared by the scalar path and the batch path's fallbacks.
    fn eval_rtl_fault(
        &self,
        ws: &mut Workspace,
        id: RtlNodeId,
        out_width: u32,
        f: FaultId,
    ) -> LogicVec {
        let mut out_v = ws.bufs.take_for(out_width);
        let view = FaultView::new(&self.diffs, &self.good, f);
        self.eval.rtl(id, &view, &mut ws.rtl_ctx, &mut out_v);
        out_v
    }
}
