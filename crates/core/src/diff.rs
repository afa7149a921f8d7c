//! Per-signal fault difference lists — the "bad gates" of concurrent fault
//! simulation — and the per-fault view over them.

use eraser_fault::FaultId;
use eraser_ir::{SignalId, ValueSource};
use eraser_logic::LogicVec;
use eraser_sim::ValueStore;

/// The visible faulty values of one signal, sorted by fault id.
///
/// An entry `(f, v)` means fault `f`'s network currently holds `v` on this
/// signal, which differs from the good value ("visible bad gate" in the
/// paper's terminology). Faults without an entry hold the good value
/// ("invisible").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffList {
    entries: Vec<(FaultId, LogicVec)>,
}

impl DiffList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty list with room for `capacity` entries — pre-sized
    /// from the number of faults sited on the signal so the common steady
    /// state never grows the backing vector.
    pub fn with_capacity(capacity: usize) -> Self {
        DiffList {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The visible value of `fault`, if any.
    #[inline]
    pub fn get(&self, fault: FaultId) -> Option<&LogicVec> {
        self.entries
            .binary_search_by_key(&fault, |(f, _)| *f)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// True if `fault` has a visible entry.
    #[inline]
    pub fn contains(&self, fault: FaultId) -> bool {
        self.entries
            .binary_search_by_key(&fault, |(f, _)| *f)
            .is_ok()
    }

    /// Inserts or updates the entry for `fault`.
    pub fn set(&mut self, fault: FaultId, value: LogicVec) {
        match self.entries.binary_search_by_key(&fault, |(f, _)| *f) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (fault, value)),
        }
    }

    /// Inserts or updates the entry for `fault` through `write`, with a
    /// single binary search. On overwrite the existing [`LogicVec`] buffer
    /// is handed to `write` for in-place reuse instead of being freed and
    /// replaced; on a miss `write` fills a default vector that is then
    /// inserted.
    pub fn upsert_with(&mut self, fault: FaultId, write: impl FnOnce(&mut LogicVec)) {
        match self.entries.binary_search_by_key(&fault, |(f, _)| *f) {
            Ok(i) => write(&mut self.entries[i].1),
            Err(i) => {
                let mut v = LogicVec::default();
                write(&mut v);
                self.entries.insert(i, (fault, v));
            }
        }
    }

    /// [`upsert_with`](Self::upsert_with), but a miss inserts a pooled
    /// buffer obtained from `seed` instead of an empty default. Wide
    /// (boxed-storage) signals use this to keep the hot path
    /// allocation-free: the seed comes from a width-classed scratch pool,
    /// so `write`'s resize reuses an existing box. `seed` is not called on
    /// an overwrite.
    pub fn upsert_seeded(
        &mut self,
        fault: FaultId,
        seed: impl FnOnce() -> LogicVec,
        write: impl FnOnce(&mut LogicVec),
    ) {
        match self.entries.binary_search_by_key(&fault, |(f, _)| *f) {
            Ok(i) => write(&mut self.entries[i].1),
            Err(i) => {
                let mut v = seed();
                write(&mut v);
                self.entries.insert(i, (fault, v));
            }
        }
    }

    /// Makes `self` an entry-wise copy of `other`, reusing both the backing
    /// vector's capacity and the existing entries' value buffers (the
    /// allocation-free `clone_from`).
    pub fn assign_from(&mut self, other: &DiffList) {
        let common = self.entries.len().min(other.entries.len());
        for (dst, src) in self.entries.iter_mut().zip(&other.entries) {
            dst.0 = src.0;
            dst.1.assign_from(&src.1);
        }
        self.entries.truncate(other.entries.len());
        self.entries
            .extend(other.entries[common..].iter().map(|(f, v)| (*f, v.clone())));
    }

    /// The visible value of `fault`, or `good` when the fault holds the
    /// good value (no entry).
    #[inline]
    pub fn view<'a>(&'a self, fault: FaultId, good: &'a LogicVec) -> &'a LogicVec {
        self.get(fault).unwrap_or(good)
    }

    /// Removes the entry for `fault`, returning its previous value.
    pub fn remove(&mut self, fault: FaultId) -> Option<LogicVec> {
        match self.entries.binary_search_by_key(&fault, |(f, _)| *f) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Keeps only entries satisfying the predicate.
    pub fn retain(&mut self, mut pred: impl FnMut(FaultId, &LogicVec) -> bool) {
        self.entries.retain(|(f, v)| pred(*f, v));
    }

    /// [`retain`](Self::retain), but hands every pruned entry's value
    /// buffer to `recycle` instead of dropping it — the allocation-free
    /// form for hot loops, where pruned boxed storage goes back into a
    /// scratch pool. Entry order is preserved.
    pub fn retain_recycle(
        &mut self,
        mut pred: impl FnMut(FaultId, &LogicVec) -> bool,
        mut recycle: impl FnMut(LogicVec),
    ) {
        let mut kept = 0;
        for i in 0..self.entries.len() {
            if pred(self.entries[i].0, &self.entries[i].1) {
                self.entries.swap(i, kept);
                kept += 1;
            }
        }
        for (_, v) in self.entries.drain(kept..) {
            recycle(v);
        }
    }

    /// Entries in fault-id order.
    pub fn entries(&self) -> &[(FaultId, LogicVec)] {
        &self.entries
    }

    /// Fault ids in order.
    pub fn ids(&self) -> impl Iterator<Item = FaultId> + '_ {
        self.entries.iter().map(|(f, _)| *f)
    }

    /// Number of visible entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no fault is visible on this signal.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Merges the fault ids of several diff lists into `out` (cleared first,
/// capacity kept): sorted, deduplicated, live faults only.
pub fn union_ids_into<'a>(
    lists: impl Iterator<Item = &'a DiffList>,
    alive: &[bool],
    out: &mut Vec<FaultId>,
) {
    out.clear();
    for l in lists {
        out.extend(l.ids().filter(|f| alive[f.index()]));
    }
    out.sort_unstable();
    out.dedup();
}

/// A fault's view of the committed design state: the diff entry where
/// visible, the good value otherwise. All lookups borrow — building or
/// reading a view never clones a value.
pub struct FaultView<'e> {
    diffs: &'e [DiffList],
    good: &'e ValueStore,
    fault: FaultId,
}

impl<'e> FaultView<'e> {
    /// Creates the view of `fault`.
    pub fn new(diffs: &'e [DiffList], good: &'e ValueStore, fault: FaultId) -> Self {
        FaultView { diffs, good, fault }
    }
}

impl ValueSource for FaultView<'_> {
    fn value(&self, sig: SignalId) -> &LogicVec {
        self.diffs[sig.index()].view(self.fault, self.good.get(sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> LogicVec {
        LogicVec::from_u64(8, x)
    }

    #[test]
    fn set_get_remove_keep_order() {
        let mut d = DiffList::new();
        d.set(FaultId(5), v(5));
        d.set(FaultId(1), v(1));
        d.set(FaultId(3), v(3));
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(FaultId(3)), Some(&v(3)));
        assert_eq!(d.get(FaultId(2)), None);
        let ids: Vec<u32> = d.ids().map(|f| f.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        d.set(FaultId(3), v(30));
        assert_eq!(d.get(FaultId(3)), Some(&v(30)));
        assert_eq!(d.remove(FaultId(3)), Some(v(30)));
        assert!(!d.contains(FaultId(3)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn union_filters_dead_faults() {
        let mut a = DiffList::new();
        a.set(FaultId(0), v(0));
        a.set(FaultId(2), v(2));
        let mut b = DiffList::new();
        b.set(FaultId(2), v(9));
        b.set(FaultId(3), v(3));
        let alive = vec![true, true, true, false];
        let mut u = vec![FaultId(7)];
        union_ids_into([&a, &b].into_iter(), &alive, &mut u);
        assert_eq!(u, vec![FaultId(0), FaultId(2)]);
    }

    #[test]
    fn retain_prunes() {
        let mut d = DiffList::new();
        for i in 0..6 {
            d.set(FaultId(i), v(i as u64));
        }
        d.retain(|f, _| f.0 % 2 == 0);
        let ids: Vec<u32> = d.ids().map(|f| f.0).collect();
        assert_eq!(ids, vec![0, 2, 4]);
    }
}
