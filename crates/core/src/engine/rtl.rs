//! RTL node simulation (Fig. 4 steps ②③), the fault side: after the
//! kernel's good evaluation of a dirty RTL node, exactly the faults with a
//! difference on an input, left for the output's commit — which gives
//! every other fault the good output, so the output's own entries are no
//! candidates. Good-only lane 2 lives here.

use super::workspace::Workspace;
use super::EngineState;
use crate::diff::{union_ids_into, DiffList};
use eraser_ir::{run_batch, RtlNodeId, SignalId, ValueSource};
use eraser_logic::{LanePlanes, LogicVec};
use eraser_sim::{Good, ValueStore};

/// Smallest batch chunk worth transposing into lane planes; below this the
/// per-chunk fixed cost (lane-word fills plus the 64×64 bit-matrix
/// transposes of the input and output planes, ~400 word operations each)
/// exceeds the scalar evaluations it replaces, so the engine falls back to
/// the scalar path (counted in `RedundancyStats::batch_scalar_fallbacks`).
/// Word-level scalar evaluation already packs a node's full width into one
/// word, so batching only wins where per-fault overheads (evaluator
/// dispatch, output buffers) amortize across well-filled lanes — measured
/// break-even sits near a quarter-full word.
const MIN_BATCH_LANES: usize = 16;

/// The row slot of an input on which the candidate holds the good value.
const NO_ENTRY: u32 = u32::MAX;

impl EngineState<'_> {
    /// The fault side of one RTL node's concurrent evaluation, after the
    /// kernel evaluated the good network.
    ///
    /// **Good-only lane 2:** with every input's diff list empty (the
    /// node's visible-input count is zero) every network computes the good
    /// output, so there is no candidate: the hook returns at once and the
    /// output's commit does the rest — ahead of the batch/scalar split, so
    /// both evaluators take it.
    #[inline]
    pub(super) fn rtl_evaluated(&mut self, ws: &mut Workspace, good: &Good<'_>, id: RtlNodeId) {
        self.stats.rtl_good_evals += 1;
        if self.rtl_vis[id.index()] != 0 {
            self.eval_rtl_faults(ws, good, id);
        }
    }

    /// Exactly the faults with a difference on an input of RTL node `id`:
    /// their outputs go to `ws.rtl_news`, for the output's commit.
    ///
    /// The input lists are walked, not searched: after their union, one
    /// forward cursor per input writes each candidate's *row* in `ws.rows`
    /// (per input, the index of its entry there, or [`NO_ENTRY`]), and both
    /// evaluators read the inputs through the rows.
    fn eval_rtl_faults(&mut self, ws: &mut Workspace, good_net: &Good<'_>, id: RtlNodeId) {
        let good = good_net.values();
        let design = self.design;
        let node = design.rtl_node(id);
        let out_width = design.width(node.output);
        let n_in = node.inputs.len();

        let mut candidates = ws.ids.take();
        union_ids_into(
            node.inputs.iter().map(|s| &self.diffs[s.index()]),
            &mut candidates,
        );
        self.stats.rtl_fault_evals += candidates.len() as u64;
        let mut rows = std::mem::take(&mut ws.rows);
        rows.clear();
        rows.resize(candidates.len() * n_in, NO_ENTRY);
        for (k, s) in node.inputs.iter().enumerate() {
            let mut entries = (0..).zip(self.diffs[s.index()].entries()).peekable();
            for (c, f) in candidates.iter().enumerate() {
                while let Some((at, (e, _))) = entries.next_if(|(_, (e, _))| e <= f) {
                    if e == f {
                        rows[c * n_in + k] = at;
                    }
                }
            }
        }
        let view = |c: usize| RowView {
            inputs: &node.inputs,
            row: &rows[c * n_in..(c + 1) * n_in],
            diffs: &self.diffs,
            good,
        };

        let mut fault_news = std::mem::take(&mut ws.rtl_news);
        let bt = self.batch.and_then(|b| b.rtl(id.index()));
        if self.batch.is_some() && bt.is_none() {
            // Batching is on but this node is unbatchable
            // (behavioral-style op, wide signal, shift, …).
            self.stats.batch_scalar_fallbacks += candidates.len() as u64;
        }
        // With a batch kernel the candidates are packed *densely*, in id
        // order, into 64-lane chunks: a lane is the fault's position in its
        // chunk, so every chunk but the last is full and the per-chunk
        // transpose cost is paid ceil(n/64) times per node evaluation. Ids
        // are site-major, so faults sharing sites (and therefore diff
        // entries) land next to each other. Without one, all candidates
        // form one scalar chunk.
        let lanes = bt.map_or(candidates.len().max(1), |_| eraser_logic::LANES as usize);
        for (base, chunk) in (0..).step_by(lanes).zip(candidates.chunks(lanes)) {
            let Some(bt) = bt.filter(|_| chunk.len() >= MIN_BATCH_LANES) else {
                if bt.is_some() {
                    self.stats.batch_scalar_fallbacks += chunk.len() as u64;
                }
                for (c, &f) in (base..).zip(chunk) {
                    let mut out_v = ws.bufs.take_for(out_width);
                    good_net.eval().rtl(id, &view(c), &mut out_v);
                    fault_news.push((f, out_v));
                }
                continue;
            };
            // Input planes: the good value broadcast to every lane,
            // overridden lane-wise by the rows' entries — exactly what each
            // lane's row view would read. Lane values are assembled as
            // per-lane words and transposed into the plane wholesale
            // (word-level, O(64·log 64)) rather than one bit-level
            // `set_lane` per fault; inputs no lane differs on skip the
            // transpose.
            while ws.planes.len() < n_in {
                ws.planes.push(LanePlanes::new());
            }
            let mut la = [0u64; 64];
            let mut lb = [0u64; 64];
            for (k, &s) in node.inputs.iter().enumerate() {
                let (plane, gv) = (&mut ws.planes[k], good.get(s));
                let entries = self.diffs[s.index()].entries();
                if entries.is_empty() {
                    plane.broadcast(gv);
                    continue;
                }
                let (ga, gb) = gv.word_planes();
                la.fill(ga);
                lb.fill(gb);
                let mut any_diff_here = false;
                for lane in 0..chunk.len() {
                    let at = rows[(base + lane) * n_in + k];
                    if at != NO_ENTRY {
                        (la[lane], lb[lane]) = entries[at as usize].1.word_planes();
                        any_diff_here = true;
                    }
                }
                if any_diff_here {
                    plane.load_lanes(gv.width(), &mut la, &mut lb);
                } else {
                    plane.broadcast(gv);
                }
            }
            run_batch(bt, &ws.planes[..n_in], &mut ws.out_plane);
            self.stats.batch_groups += 1;
            self.stats.batch_lanes += chunk.len() as u64;
            // One word-level gather of all lanes, then O(1) word-assigns
            // per fault.
            ws.out_plane.store_lanes(&mut la, &mut lb);
            for (lane, &f) in chunk.iter().enumerate() {
                let mut out_v = ws.bufs.take_for(out_width);
                out_v.assign_word(out_width, la[lane], lb[lane]);
                fault_news.push((f, out_v));
            }
        }
        ws.rtl_news = fault_news;
        ws.rows = rows;
        ws.ids.put(candidates);
    }
}

/// One candidate's view of an RTL node's inputs: its row's entries, the
/// good value where the row has none.
struct RowView<'e> {
    inputs: &'e [SignalId],
    row: &'e [u32],
    diffs: &'e [DiffList],
    good: &'e ValueStore,
}

impl ValueSource for RowView<'_> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        let k = self.inputs.iter().position(|&s| s == sig);
        match self.row[k.expect("an RTL node reads only its inputs")] {
            NO_ENTRY => self.good.get(sig),
            at => &self.diffs[sig.index()].entries()[at as usize].1,
        }
    }
}
