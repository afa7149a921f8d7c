//! The committed state — the good values and the per-signal diff lists —
//! is written here and nowhere else: input drives, the one
//! [`commit_signal`](EngineState::commit_signal) every path ends in, the
//! blocking and NBA (Fig. 4 step ⑦) commits of behavioral activations,
//! and the removal of a detected fault's entries after the step
//! (`observe`). Good-only lanes 1 and 4 live here.

use super::workspace::{Activation, Workspace};
use super::EngineState;
use eraser_fault::{detectable_mismatch, Detection, FaultId};
use eraser_ir::{BehavioralId, RtlNodeId, SignalId};
use eraser_logic::LogicVec;
use eraser_sim::{ExecOutcome, SlotWrite};

impl EngineState<'_> {
    pub(super) fn set_input(&mut self, ws: &mut Workspace, sig: SignalId, value: &LogicVec) {
        let width = self.design.signal(sig).width;
        if value.width() == width {
            if self.good.get(sig) != value {
                self.commit_signal(ws, sig, value, &[], true);
            }
        } else {
            let mut resized = ws.bufs.take_for(width);
            resized.copy_resized(value, width);
            if self.good.get(sig) != &resized {
                self.commit_signal(ws, sig, &resized, &[], true);
            }
            ws.bufs.put(resized);
        }
    }

    // ---- scheduling ----

    pub(super) fn mark_rtl(&mut self, id: RtlNodeId) {
        if !self.rtl_dirty[id.index()] {
            self.rtl_dirty[id.index()] = true;
            self.rtl_queue.push(id);
        }
    }

    pub(super) fn mark_beh(&mut self, id: BehavioralId) {
        if !self.beh_dirty[id.index()] {
            self.beh_dirty[id.index()] = true;
            self.beh_queue.push(id);
        }
    }

    fn schedule_fanout(&mut self, sig: SignalId) {
        for &n in self.design.rtl_fanout(sig) {
            self.mark_rtl(n);
        }
        for &b in self.design.level_fanout(sig) {
            self.mark_beh(b);
        }
        if !self.design.edge_fanout(sig).is_empty() && !self.watch_flag[sig.index()] {
            self.watch_flag[sig.index()] = true;
            self.watch_changed.push(sig);
        }
    }

    // ---- committed-state updates ----

    /// Commits a new good value and a batch of fault updates to one signal,
    /// maintaining the diff-list invariants:
    ///
    /// * entries exist exactly where a live fault's value differs from the
    ///   good value,
    /// * faults sited on this signal always observe their stuck bit forced
    ///   (the force is re-applied on every write),
    /// * fanout is scheduled if the good value or any fault's *view*
    ///   changed.
    ///
    /// `good_write_applies_to_all` states that the write producing
    /// `new_good` also occurs in every fault network not explicitly listed
    /// in `fault_news` (true for input drives, RTL node outputs and
    /// behavioral targets the *good* execution wrote). Only then may the
    /// stuck-at force be re-materialized for sited faults missing from the
    /// batch; when a behavioral target was written solely by some other
    /// fault's network, untouched faults keep their private values.
    ///
    /// **Good-only lane 1:** a [clean](Self::clean) target with no fault
    /// updates has no entry to maintain and no force to re-apply — the
    /// commit is the good simulator's compare, store and schedule. Every
    /// other lane ends here.
    pub(super) fn commit_signal(
        &mut self,
        ws: &mut Workspace,
        sig: SignalId,
        new_good: &LogicVec,
        fault_news: &[(FaultId, LogicVec)],
        good_write_applies_to_all: bool,
    ) {
        if fault_news.is_empty() && self.clean(sig) {
            if self.good.commit(sig, new_good) {
                self.schedule_fanout(sig);
            }
            return;
        }
        let si = sig.index();
        let good_changed = self.good.get(sig) != new_good;
        let mut view_changed = false;
        let epoch = self.next_commit_epoch();
        let width = self.design.signal(sig).width;
        let mut forced = ws.bufs.take_for(width);

        // The update batch first; then, when the good write reached every
        // network, the faults sited here that the batch did not name —
        // their force is re-applied against the new good value.
        let n_news = fault_news.len();
        let n_sited = if good_write_applies_to_all {
            self.site_faults[si].len()
        } else {
            0
        };
        for k in 0..n_news + n_sited {
            let (f, value) = match fault_news.get(k) {
                Some((f, v)) => (*f, v),
                None => (self.site_faults[si][k - n_news], new_good),
            };
            if !self.alive[f.index()] || self.commit_seen[f.index()] == epoch {
                continue;
            }
            self.commit_seen[f.index()] = epoch;
            let fault = self.faults.fault(f);
            forced.assign_from(value);
            if fault.signal == sig {
                fault.apply_assign(&mut forced);
            }
            // The good store is updated last, so this is still the old view.
            view_changed |= forced != *self.diffs[si].view(f, self.good.get(sig));
            if forced != *new_good {
                let fv = &forced;
                self.diffs[si].upsert_seeded(
                    f,
                    || ws.bufs.take_for(width),
                    |slot| slot.assign_from(fv),
                );
            } else if let Some(buf) = self.diffs[si].remove(f) {
                ws.bufs.put(buf);
            }
        }

        // Untouched entries keep their absolute value; those now equal to
        // the good value became invisible, dead entries are purged.
        {
            let alive = &self.alive;
            let seen = &self.commit_seen;
            self.diffs[si].retain_recycle(
                |f, v| seen[f.index()] == epoch || (alive[f.index()] && v != new_good),
                |v| ws.bufs.put(v),
            );
        }

        self.good.commit(sig, new_good);
        if good_changed || view_changed {
            self.schedule_fanout(sig);
        }
        ws.bufs.put(forced);
    }

    /// Opens a `commit_signal` call's membership epoch: afterwards
    /// `commit_seen[f] == epoch` exactly for the faults this call stamped.
    fn next_commit_epoch(&mut self) -> u32 {
        self.commit_epoch = self.commit_epoch.wrapping_add(1);
        if self.commit_epoch == 0 {
            self.commit_seen.fill(0);
            self.commit_epoch = 1;
        }
        self.commit_epoch
    }

    /// What a good write to target `t` means for the faults that did not
    /// execute the activation themselves (`covered` holds the ones that
    /// did): a suppressed fault's network never fired, so its value is
    /// pinned at its pre-commit view; a fault skipped as redundant that
    /// carries a difference on `t` has `good_writes` replayed onto its
    /// value. Both are appended to `fault_news`.
    fn pin_and_replay(
        &self,
        ws: &mut Workspace,
        t: SignalId,
        suppressed: &[FaultId],
        good_writes: &[SlotWrite],
        covered: &mut Vec<FaultId>,
        fault_news: &mut Vec<(FaultId, LogicVec)>,
    ) {
        let t_width = self.design.signal(t).width;
        let (diffs, good) = (&self.diffs[t.index()], self.good.get(t));
        for &f in suppressed {
            if self.alive[f.index()] {
                covered.push(f);
                let mut val = ws.bufs.take_for(t_width);
                val.assign_from(diffs.view(f, good));
                fault_news.push((f, val));
            }
        }
        covered.sort_unstable();
        for (f, v) in diffs.entries() {
            if self.alive[f.index()] && covered.binary_search(f).is_err() {
                let mut val = ws.bufs.take_for(t_width);
                val.assign_from(v);
                for w in good_writes {
                    if w.target == t {
                        w.apply_assign(&mut val);
                    }
                }
                fault_news.push((*f, val));
            }
        }
    }

    /// Commits blocking effects of one activation: the good finals, each
    /// executed fault's finals, pinned values for suppressed faults, and
    /// replayed good writes for faults that were skipped as redundant but
    /// carry differences on written targets.
    pub(super) fn commit_blocking(
        &mut self,
        ws: &mut Workspace,
        act: &Activation,
        good_out: &ExecOutcome,
        fault_outs: &[(FaultId, ExecOutcome)],
    ) {
        // Union of blocking-written targets.
        let mut targets = ws.sigs.take();
        targets.extend(good_out.blocking.iter().map(|(s, _)| *s));
        for (_, o) in fault_outs {
            targets.extend(o.blocking.iter().map(|(s, _)| *s));
        }
        targets.sort_unstable();
        targets.dedup();

        for &t in &targets {
            // Buffers come from the width class of the target being
            // committed, so multi-target blocks mixing narrow and >64-bit
            // regs never reshape pooled storage.
            let t_width = self.design.signal(t).width;
            let mut new_good = ws.bufs.take_for(t_width);
            let good_final = good_out.blocking.iter().find(|(s, _)| *s == t);
            let good_wrote = good_final.is_some();
            match good_final {
                Some((_, v)) => new_good.assign_from(v),
                None => new_good.assign_from(self.good.get(t)),
            }

            let mut fault_news = ws.news.take();
            let mut covered = ws.ids.take();
            for (f, o) in fault_outs {
                covered.push(*f);
                let mut val = ws.bufs.take_for(t_width);
                match o.blocking.iter().find(|(s, _)| *s == t) {
                    Some((_, v)) => val.assign_from(v),
                    // Executed but did not write this target: its value is
                    // pinned at its own pre-commit view.
                    None => val.assign_from(self.diffs[t.index()].view(*f, self.good.get(t))),
                }
                fault_news.push((*f, val));
            }
            if act.good && good_wrote {
                self.pin_and_replay(
                    ws,
                    t,
                    &act.suppressed,
                    &good_out.blocking_writes,
                    &mut covered,
                    &mut fault_news,
                );
            }
            self.commit_signal(ws, t, &new_good, &fault_news, good_wrote);
            ws.bufs.put(new_good);
            ws.put_news(fault_news);
            ws.ids.put(covered);
        }
        ws.sigs.put(targets);
    }

    /// Commits the NBA region: for every pending activation block and every
    /// written target, computes the new good value and every affected
    /// fault's new value (own writes for executed faults, pinned values for
    /// suppressed ones, replayed good writes for skipped faults with
    /// differences).
    ///
    /// **Good-only lane 4:** a block of good writes only has no fault value
    /// to compute on a target that is [clean](Self::clean) *now* — faults
    /// may have become visible there since the block was queued — so the
    /// folded good value goes straight to the commit.
    pub(super) fn commit_nba(&mut self, ws: &mut Workspace) -> bool {
        if self.pending_nba.is_empty() {
            return false;
        }
        let mut pending = std::mem::take(&mut self.pending_nba);
        let mut any = false;
        for block in &pending {
            let mut targets = ws.sigs.take();
            targets.extend(block.good_writes.iter().map(|w| w.target));
            targets.extend(block.fault_writes.iter().map(|w| w.target));
            targets.sort_unstable();
            targets.dedup();
            let good_only = block.executed.is_empty() && block.suppressed.is_empty();

            for &t in &targets {
                // Width-classed like commit_blocking: pooled buffers stay
                // within the committed target's storage class.
                let t_width = self.design.signal(t).width;
                let mut new_good = ws.bufs.take_for(t_width);
                new_good.assign_from(self.good.get(t));
                let mut good_wrote = false;
                for w in &block.good_writes {
                    if w.target == t {
                        w.apply_assign(&mut new_good);
                        good_wrote = true;
                    }
                }
                let good_changed = self.good.get(t) != &new_good;
                if good_only && self.clean(t) {
                    any |= good_changed;
                    self.commit_signal(ws, t, &new_good, &[], true);
                    ws.bufs.put(new_good);
                    continue;
                }

                let mut fault_news = ws.news.take();
                let mut covered = ws.ids.take();
                for &(f, start, end) in &block.executed {
                    if !self.alive[f.index()] {
                        continue;
                    }
                    covered.push(f);
                    let mut val = ws.bufs.take_for(t_width);
                    val.assign_from(self.diffs[t.index()].view(f, self.good.get(t)));
                    let mut wrote = false;
                    for w in &block.fault_writes[start as usize..end as usize] {
                        if w.target == t {
                            w.apply_assign(&mut val);
                            wrote = true;
                        }
                    }
                    if wrote || good_wrote {
                        fault_news.push((f, val));
                    } else {
                        ws.bufs.put(val);
                    }
                }
                if good_wrote {
                    self.pin_and_replay(
                        ws,
                        t,
                        &block.suppressed,
                        &block.good_writes,
                        &mut covered,
                        &mut fault_news,
                    );
                }

                let before_entries = self.diffs[t.index()].len();
                self.commit_signal(ws, t, &new_good, &fault_news, good_wrote);
                if good_changed || self.diffs[t.index()].len() != before_entries {
                    any = true;
                }
                ws.put_news(fault_news);
                ws.ids.put(covered);
                ws.bufs.put(new_good);
            }
            ws.sigs.put(targets);
        }
        // Recycle the blocks; any scheduling already happened inside
        // commit_signal — report whether another delta is needed. The
        // write values go back to the execution scratch the interpreter
        // draws assignment buffers from, so wide (>64-bit) NBA targets
        // keep reusing their boxed storage across activations.
        for mut block in pending.drain(..) {
            for w in block.good_writes.drain(..) {
                ws.exec_ctx.scratch.put(w.value);
            }
            for w in block.fault_writes.drain(..) {
                ws.exec_ctx.scratch.put(w.value);
            }
            self.nba_pool.put(block);
        }
        self.pending_nba = pending;
        any || !self.rtl_queue.is_empty()
            || !self.beh_queue.is_empty()
            || !self.watch_changed.is_empty()
    }

    // ---- observation ----

    pub(super) fn observe(&mut self, ws: &mut Workspace) {
        let design = self.design;
        let mut hits = ws.ids.take();
        let mut newly_dead = false;
        for &o in design.outputs() {
            hits.clear();
            {
                let good = self.good.get(o);
                let alive = &self.alive;
                hits.extend(
                    self.diffs[o.index()]
                        .entries()
                        .iter()
                        .filter(|(f, v)| alive[f.index()] && detectable_mismatch(good, v))
                        .map(|(f, _)| *f),
                );
            }
            for &f in &hits {
                if self.coverage.record(
                    f,
                    Detection {
                        step: self.step_index,
                        output: o,
                    },
                ) && self.drop_detected
                {
                    self.alive[f.index()] = false;
                    self.alive_count -= 1;
                    self.site_live[self.faults.fault(f).signal.index()] -= 1;
                    self.stats.dropped_faults += 1;
                    newly_dead = true;
                }
            }
        }
        ws.ids.put(hits);
        if newly_dead {
            self.sweep_dead(ws);
        }
    }

    /// Removes diff entries of dropped faults everywhere, recycling their
    /// value buffers so wide (boxed) storage survives fault drops.
    fn sweep_dead(&mut self, ws: &mut Workspace) {
        let alive = &self.alive;
        let bufs = &mut ws.bufs;
        for dl in &mut self.diffs {
            dl.retain_recycle(|f, _| alive[f.index()], |v| bufs.put(v));
        }
        for dl in &mut self.edge_prev_diffs {
            dl.retain_recycle(|f, _| alive[f.index()], |v| bufs.put(v));
        }
    }
}
