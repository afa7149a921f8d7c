//! The worker-thread knob and the work queue behind it.
//!
//! [`ParallelConfig`] is the one way to fan a campaign out: a thread
//! count, carried inside [`CampaignConfig`](crate::CampaignConfig) and
//! honoured natively by every engine. What the threads work on — the
//! campaign's plan — and how the results recombine is the `schedule`
//! module's business; this module only owns the knob and the scoped
//! worker pool the schedule's drain runs on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fault-parallel execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. `1` runs serially in the calling thread; `0` means
    /// auto (one worker per available hardware thread).
    pub threads: usize,
}

impl ParallelConfig {
    /// `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The concrete worker count: `threads`, with `0` resolved to the
    /// available hardware parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// True if campaigns under this config fan out over worker threads.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }
}

/// Strictly serial execution: one thread.
impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: 1 }
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = self.effective_threads();
        write!(f, "{threads} thread{}", if threads == 1 { "" } else { "s" })
    }
}

/// Runs `work` over every item on `threads` scoped worker threads pulling
/// item indices dynamically from a shared queue, and returns the results
/// in item order.
///
/// The queue is a single atomic cursor over the item slice: idle workers
/// claim the next unclaimed item, so a worker stuck on a heavy item never
/// blocks the rest of the queue (work stealing without per-item locks).
/// With one thread (or one item) everything runs inline in the caller —
/// the serial execution is the *same code path* over the same items,
/// which is what makes thread count a pure wall-clock axis for the drain
/// built on this queue.
pub(crate) fn run_queue<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = work(item);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker completed every claimed item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_queue_preserves_item_order() {
        let items: Vec<usize> = (0..23).collect();
        let tripled: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 4, 64] {
            assert_eq!(run_queue(&items, threads, |i| i * 3), tripled);
        }
        assert!(run_queue(&[] as &[usize], 4, |i| *i).is_empty());
    }

    #[test]
    fn config_accessors() {
        let cfg = ParallelConfig::with_threads(3);
        assert!(cfg.is_parallel());
        assert_eq!(cfg.effective_threads(), 3);
        assert!(!ParallelConfig::default().is_parallel());
        assert!(ParallelConfig::with_threads(0).effective_threads() >= 1);
        assert_eq!(ParallelConfig::default().to_string(), "1 thread");
        assert_eq!(cfg.to_string(), "3 threads");
    }
}
