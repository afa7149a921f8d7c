//! RTL node simulation (Fig. 4 steps ②③), the fault side: after the
//! kernel's good evaluation of a dirty RTL node, exactly the faults visible
//! at the node — evaluated on their views, left for the output's commit.
//! Good-only lane 2 lives here.

use super::workspace::Workspace;
use super::EngineState;
use crate::diff::union_ids_into;
use crate::diff::FaultView;
use eraser_fault::FaultId;
use eraser_ir::{run_batch, RtlNodeId};
use eraser_logic::{LanePlanes, LogicVec};
use eraser_sim::{ExecCtx, Good};

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
    /// The fault side of one RTL node's concurrent evaluation, after the
    /// kernel evaluated the good network to `good_out`.
    ///
    /// **Good-only lane 2:** with every input and the output
    /// [clean](Self::clean) there is no candidate and nothing to re-force,
    /// so the hook returns at once and the good value goes straight to the
    /// commit — ahead of the batch/scalar split, so both evaluators take it.
    #[inline]
    pub(super) fn rtl_evaluated(
        &mut self,
        ws: &mut Workspace,
        good: &Good<'_>,
        ctx: &mut ExecCtx,
        id: RtlNodeId,
        good_out: &LogicVec,
    ) {
        self.stats.rtl_good_evals += 1;
        let node = self.design.rtl_node(id);
        if !(self.clean(node.output) && node.inputs.iter().all(|s| self.clean(*s))) {
            self.eval_rtl_faults(ws, good, ctx, id, good_out);
        }
    }

    /// Exactly the faults with a visible difference on an input of RTL
    /// node `id`, an existing (possibly stale) difference on its output, or
    /// a fault site on the output: their outputs go to `ws.rtl_news`, for
    /// the output's commit, evaluated with the kernel's `ctx`.
    fn eval_rtl_faults(
        &mut self,
        ws: &mut Workspace,
        good_net: &Good<'_>,
        ctx: &mut ExecCtx,
        id: RtlNodeId,
        good_out: &LogicVec,
    ) {
        let good = good_net.values();
        let design = self.design;
        let node = design.rtl_node(id);
        let out_width = design.signal(node.output).width;

        let mut candidates = ws.ids.take();
        union_ids_into(
            node.inputs
                .iter()
                .map(|s| &self.diffs[s.index()])
                .chain(std::iter::once(&self.diffs[node.output.index()])),
            &self.alive,
            &mut candidates,
        );
        // Sited faults are re-forced by commit_faults; they only need
        // explicit evaluation when an input difference feeds them, which
        // the union above already covers.

        // A candidate with no visible input difference has the good output
        // (explicit redundancy at the RTL node level); only the others stay
        // in `candidates`, to be evaluated by whichever evaluator applies.
        let mut fault_news = std::mem::take(&mut ws.rtl_news);
        candidates.retain(|&f| {
            let any_diff = node
                .inputs
                .iter()
                .any(|s| self.diffs[s.index()].contains(f));
            if !any_diff {
                let mut out_v = ws.bufs.take_for(out_width);
                out_v.assign_from(good_out);
                fault_news.push((f, out_v));
            }
            any_diff
        });
        self.stats.rtl_fault_evals += candidates.len() as u64;

        if let Some(bt) = self.batch.and_then(|b| b.rtl(id.index())) {
            // Bit-parallel path. The candidates are packed *densely*, in id
            // order, into 64-lane chunks: a lane is the fault's position in
            // its chunk, so every chunk but the last is full and the
            // per-chunk transpose cost is paid ceil(n/64) times per node
            // evaluation. Ids are site-major, so faults sharing sites (and
            // therefore diff entries) land next to each other.
            for chunk in candidates.chunks(eraser_logic::LANES as usize) {
                if chunk.len() < MIN_BATCH_LANES {
                    self.stats.batch_scalar_fallbacks += chunk.len() as u64;
                    for &f in chunk {
                        fault_news
                            .push((f, self.eval_rtl_fault(ws, good_net, ctx, id, out_width, f)));
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
                        let gv = good.get(s);
                        let dl = &self.diffs[s.index()];
                        if dl.is_empty() {
                            plane.broadcast(gv);
                            continue;
                        }
                        let (ga, gb) = gv.word_planes();
                        la.fill(ga);
                        lb.fill(gb);
                        let mut any_diff_here = false;
                        for (lane, &f) in chunk.iter().enumerate() {
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
                    for (lane, &f) in chunk.iter().enumerate() {
                        let mut out_v = ws.bufs.take_for(out_width);
                        out_v.assign_word(out_width, la[lane], lb[lane]);
                        fault_news.push((f, out_v));
                    }
                }
            }
        } else {
            if self.batch.is_some() {
                // Batching is on but this node is unbatchable
                // (behavioral-style op, wide signal, shift, …).
                self.stats.batch_scalar_fallbacks += candidates.len() as u64;
            }
            for &f in &candidates {
                fault_news.push((f, self.eval_rtl_fault(ws, good_net, ctx, id, out_width, f)));
            }
        }
        ws.rtl_news = fault_news;
        ws.ids.put(candidates);
    }

    /// One fault's scalar RTL evaluation against its view — the per-lane
    /// kernel shared by the scalar path and the batch path's fallbacks.
    fn eval_rtl_fault(
        &self,
        ws: &mut Workspace,
        good: &Good<'_>,
        ctx: &mut ExecCtx,
        id: RtlNodeId,
        out_width: u32,
        f: FaultId,
    ) -> LogicVec {
        let mut out_v = ws.bufs.take_for(out_width);
        let view = FaultView::new(&self.diffs, good.values(), f);
        good.eval().rtl(id, &view, ctx, &mut out_v);
        out_v
    }
}
