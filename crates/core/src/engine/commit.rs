//! The fault side of the committed state — the per-signal diff lists — is
//! written here and nowhere else: the one
//! [`commit_faults`](EngineState::commit_faults) every kernel commit runs
//! before the good store (input drives, RTL outputs, and the blocking and
//! NBA (Fig. 4 step ⑦) commits of behavioral activations), and the removal
//! of a detected fault's entries after the step (`observe`). Good-only
//! lanes 1 and 4 live here.

use super::workspace::Workspace;
use super::{EngineState, Phase};
use eraser_fault::{detectable_mismatch, Detection, FaultId};
use eraser_ir::SignalId;
use eraser_logic::LogicVec;
use eraser_sim::{SlotWrite, ValueStore};

impl EngineState<'_> {
    /// Commits a batch of fault updates to one signal, ahead of the
    /// kernel's store of `new_good`, maintaining the diff-list invariants:
    ///
    /// * entries exist exactly where a live fault's value differs from the
    ///   good value,
    /// * faults sited on this signal always observe their stuck bit forced
    ///   (the force is re-applied on every write).
    ///
    /// Returns whether any fault's *view* changed; the kernel schedules
    /// fanout on that or a good change.
    ///
    /// `good_write_applies_to_all` states that the write producing
    /// `new_good` also occurs in every fault network not explicitly listed
    /// in `fault_news` (true for input drives, RTL node outputs and
    /// behavioral targets the *good* execution wrote). Then a live fault
    /// missing from the batch takes `new_good`: its entry, if any, is
    /// purged, and the stuck-at force is re-materialized for the sited
    /// ones. So an RTL output's batch names only the faults with an input
    /// difference. When a behavioral target was written solely by some
    /// other fault's network, untouched faults keep their private values.
    ///
    /// A [clean](Self::clean) target with no fault updates has nothing to
    /// do here: good-only lane 1 (see [`good_only_commit`](Self::good_only_commit)),
    /// which every other lane ends in.
    pub(super) fn commit_faults(
        &mut self,
        ws: &mut Workspace,
        good: &ValueStore,
        sig: SignalId,
        new_good: &LogicVec,
        fault_news: &[(FaultId, LogicVec)],
        good_write_applies_to_all: bool,
    ) -> bool {
        if fault_news.is_empty() && self.clean(sig) {
            return false;
        }
        let si = sig.index();
        let was_empty = self.diffs[si].is_empty();
        let mut view_changed = false;
        let epoch = self.next_commit_epoch();
        let width = self.design.width(sig);
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
            if self.commit_seen[f.index()] == epoch {
                continue;
            }
            self.commit_seen[f.index()] = epoch;
            let fault = self.faults.fault(f);
            forced.assign_from(value);
            if fault.signal == sig {
                fault.apply_assign(&mut forced);
            }
            // The good store is updated after this call, so this is still
            // the old view.
            view_changed |= forced != *self.diffs[si].view(f, good.get(sig));
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

        // Untouched entries took the good write, or else keep their
        // absolute value, and those now equal to the good value became
        // invisible.
        {
            let seen = &self.commit_seen;
            self.diffs[si].retain_recycle(
                |f, v| {
                    let named = seen[f.index()] == epoch;
                    let differs = !named && v != new_good;
                    view_changed |= differs && good_write_applies_to_all;
                    named || (differs && !good_write_applies_to_all)
                },
                |v| ws.bufs.put(v),
            );
        }
        ws.bufs.put(forced);
        self.settle_visibility(sig, was_empty);
        view_changed
    }

    /// Opens a `commit_faults` call's membership epoch: afterwards
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
    #[allow(clippy::too_many_arguments)]
    fn pin_and_replay(
        &self,
        ws: &mut Workspace,
        good: &ValueStore,
        t: SignalId,
        suppressed: &[FaultId],
        good_writes: &[SlotWrite],
        covered: &mut Vec<FaultId>,
        fault_news: &mut Vec<(FaultId, LogicVec)>,
    ) {
        let t_width = self.design.width(t);
        let (diffs, good) = (&self.diffs[t.index()], good.get(t));
        for &f in suppressed {
            covered.push(f);
            let mut val = ws.bufs.take_for(t_width);
            val.assign_from(diffs.view(f, good));
            fault_news.push((f, val));
        }
        covered.sort_unstable();
        for (f, v) in diffs.entries() {
            if covered.binary_search(f).is_err() {
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

    /// **Good-only lanes 1 and 4:** a [clean](Self::clean) target and
    /// nothing for the faults in the open commit — no RTL fault output, no
    /// executed or suppressed fault in the activation or the NBA block
    /// (faults may have become visible on the target since that block was
    /// queued, so cleanness is read *now*) — has no entry to maintain and
    /// no force to re-apply: the commit is the kernel's compare, store and
    /// schedule alone.
    #[inline]
    pub(super) fn good_only_commit(&self, ws: &Workspace, sig: SignalId) -> bool {
        self.clean(sig)
            && match self.phase {
                Phase::Settle => ws.rtl_news.is_empty(),
                Phase::Activation(slot) => {
                    ws.fault_outs.is_empty() && self.activation(slot).suppressed.is_empty()
                }
                Phase::Nba(slot) => {
                    let block = self.nba_side(slot);
                    block.executed.is_empty() && block.suppressed.is_empty()
                }
            }
    }

    /// The fault side of one kernel commit of `new_good` to `t`, by phase:
    /// an input drive or RTL output with the fault outputs `rtl_evaluated`
    /// left; or a blocking or NBA block target, `new_good` the good value
    /// with the good writes to `t` folded (`good_wrote`: there were some;
    /// else only faults wrote it), with each executed fault's own value
    /// (its blocking final, or its view with its NBA writes to `t`),
    /// pinned values for suppressed faults, and replayed good writes for
    /// faults skipped as redundant that carry differences on `t`.
    pub(super) fn commit_target(
        &mut self,
        ws: &mut Workspace,
        good: &ValueStore,
        t: SignalId,
        new_good: &LogicVec,
        good_wrote: bool,
        good_writes: &[SlotWrite],
    ) -> bool {
        let suppressed = match self.phase {
            Phase::Settle => {
                let news = std::mem::take(&mut ws.rtl_news);
                let view_changed = self.commit_faults(ws, good, t, new_good, &news, true);
                ws.rtl_news = ws.recycle_news(news);
                return view_changed;
            }
            Phase::Activation(slot) => &self.activation(slot).suppressed[..],
            Phase::Nba(slot) => &self.nba_side(slot).suppressed[..],
        };
        let (t_width, view) = (self.design.width(t), &self.diffs[t.index()]);
        let mut fault_news = ws.news.take();
        let mut covered = ws.ids.take();
        if let Phase::Nba(slot) = self.phase {
            let block = self.nba_side(slot);
            for &(f, start, end) in &block.executed {
                covered.push(f);
                let mut val = ws.bufs.take_for(t_width);
                val.assign_from(view.view(f, good.get(t)));
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
        } else {
            for (f, o) in &ws.fault_outs {
                covered.push(*f);
                let mut val = ws.bufs.take_for(t_width);
                match o.blocking.iter().find(|(s, _)| *s == t) {
                    Some((_, v)) => val.assign_from(v),
                    // Executed but did not write this target: its value is
                    // pinned at its own pre-commit view.
                    None => val.assign_from(view.view(*f, good.get(t))),
                }
                fault_news.push((*f, val));
            }
        }
        if good_wrote {
            self.pin_and_replay(
                ws,
                good,
                t,
                suppressed,
                good_writes,
                &mut covered,
                &mut fault_news,
            );
        }
        let before_entries = self.diffs[t.index()].len();
        let view_changed = self.commit_faults(ws, good, t, new_good, &fault_news, good_wrote);
        if let Phase::Nba(_) = self.phase {
            self.nba_moved |= self.diffs[t.index()].len() != before_entries;
        }
        ws.put_news(fault_news);
        ws.ids.put(covered);
        view_changed
    }

    // ---- observation ----

    /// Records the detections at every output with a diff entry (an entry
    /// of a fault detected earlier records nothing), and drops the newly
    /// detected faults when configured.
    pub(super) fn observe(&mut self, ws: &mut Workspace, good: &ValueStore) {
        let mut newly_dead = false;
        for &o in self.design.outputs() {
            let entries = self.diffs[o.index()].entries();
            if entries.is_empty() {
                continue;
            }
            let mut hits = ws.ids.take();
            let good = good.get(o);
            hits.extend(
                (entries.iter())
                    .filter(|(_, v)| detectable_mismatch(good, v))
                    .map(|(f, _)| *f),
            );
            let detection = Detection {
                step: self.step_index,
                output: o,
            };
            for &f in &hits {
                if self.coverage.record(f, detection) && self.drop_detected {
                    self.alive_count -= 1;
                    let site = self.faults.fault(f).signal;
                    self.site_faults[site.index()].retain(|&g| g != f);
                    self.refresh_clean(site);
                    self.stats.dropped_faults += 1;
                    newly_dead = true;
                }
            }
            ws.ids.put(hits);
        }
        if newly_dead {
            self.sweep_dead(ws);
        }
    }

    /// Removes diff entries of dropped (with dropping on: detected)
    /// faults everywhere, recycling their value buffers so wide (boxed)
    /// storage survives fault drops, and keeps the visible-input counts of
    /// the lists it empties.
    fn sweep_dead(&mut self, ws: &mut Workspace) {
        for si in 0..self.diffs.len() {
            let (coverage, bufs) = (&self.coverage, &mut ws.bufs);
            let was_empty = self.diffs[si].is_empty();
            self.diffs[si].retain_recycle(|f, _| !coverage.is_detected(f), |v| bufs.put(v));
            self.settle_visibility(SignalId::from_index(si), was_empty);
        }
        let (coverage, bufs) = (&self.coverage, &mut ws.bufs);
        for dl in &mut self.edge_prev_diffs {
            dl.retain_recycle(|f, _| !coverage.is_detected(f), |v| bufs.put(v));
        }
    }
}
