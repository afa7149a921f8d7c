//! Campaign progress instrumentation.
//!
//! A [`CampaignProgress`] is a small block of atomic counters a campaign
//! driver ticks as it schedules work: how many fault groups the plan
//! contains, how many have completed, and the same pair
//! for individual faults. Observers — the campaign service's
//! `GET /campaigns/:id` endpoint — read a consistent-enough
//! [`ProgressSnapshot`] at any time without locks, from any thread, while
//! the campaign runs. Ticking is wait-free relaxed atomics; the counters
//! are observability only and never influence scheduling, so coverage
//! stays bit-identical with or without a progress block attached.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared campaign progress counters (see the module docs).
#[derive(Debug, Default)]
pub struct CampaignProgress {
    groups_total: AtomicU64,
    groups_done: AtomicU64,
    faults_total: AtomicU64,
    faults_done: AtomicU64,
}

impl CampaignProgress {
    /// A zeroed progress block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces the campaign's plan: `groups` schedulable fault groups
    /// covering `faults` scheduled faults.
    /// Called once per campaign, after planning and before any engine runs.
    pub fn begin(&self, groups: usize, faults: usize) {
        self.groups_total.store(groups as u64, Ordering::Relaxed);
        self.groups_done.store(0, Ordering::Relaxed);
        self.faults_total.store(faults as u64, Ordering::Relaxed);
        self.faults_done.store(0, Ordering::Relaxed);
    }

    /// Records one completed work group carrying `faults` faults.
    pub fn group_done(&self, faults: usize) {
        self.groups_done.fetch_add(1, Ordering::Relaxed);
        self.faults_done.fetch_add(faults as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            groups_total: self.groups_total.load(Ordering::Relaxed),
            groups_done: self.groups_done.load(Ordering::Relaxed),
            faults_total: self.faults_total.load(Ordering::Relaxed),
            faults_done: self.faults_done.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`CampaignProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    /// Work groups the plan contains (0 until planning completes).
    pub groups_total: u64,
    /// Work groups that have finished.
    pub groups_done: u64,
    /// Faults scheduled across all groups.
    pub faults_total: u64,
    /// Faults whose groups have finished.
    pub faults_done: u64,
}

impl ProgressSnapshot {
    /// Completed share of the planned groups, in percent (100 when the
    /// plan is empty — nothing left to do).
    pub fn percent(&self) -> f64 {
        if self.groups_total == 0 {
            100.0
        } else {
            100.0 * self.groups_done as f64 / self.groups_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_accumulate() {
        let p = CampaignProgress::new();
        assert_eq!(p.snapshot(), ProgressSnapshot::default());
        assert_eq!(p.snapshot().percent(), 100.0);
        p.begin(4, 100);
        assert_eq!(p.snapshot().groups_total, 4);
        assert_eq!(p.snapshot().percent(), 0.0);
        p.group_done(25);
        p.group_done(30);
        let s = p.snapshot();
        assert_eq!(s.groups_done, 2);
        assert_eq!(s.faults_done, 55);
        assert_eq!(s.percent(), 50.0);
    }
}
