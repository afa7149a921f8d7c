//! Host-speed calibration. The reference box is a small shared VM whose
//! speed drifts by a factor of up to 1.6 on a time scale of seconds
//! (neighbours on the same physical cores), which no amount of repetition
//! inside a ten-second run averages out. So every timed call is bracketed
//! by a fixed kernel of the benchmark's own — four independent integer
//! chains over an L1-resident table with a data-dependent store, nothing
//! of the product in it — and reported in *reference seconds*: measured
//! seconds times `REFERENCE_S` over the kernel's time just before and
//! after the call. On a quiet reference box the factor is one.
//!
//! The kernel was chosen by measurement: of four candidates (a dependent
//! load chain over 512 KB, this one, random loads over 8 MB, unpredictable
//! branches) this one's time tracked campaign wall best on every workload
//! kind (log-log slope 0.7-1.15, r 0.7-0.9), i.e. the interference is
//! mostly contention for a shared core's issue slots, not for cache or
//! memory.
//! Bracketing cut the spread of ten-second medians of one fixed pass from
//! 8.5% to 3.0% (range 253-371 ms raw, 396-439 normalised).
//!
//! A change to the product cannot move the kernel, so it shows in full; a
//! change to the kernel changes every number and bumps `metrics::VERSION`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall on the quiet reference box.
pub const REFERENCE_S: f64 = 0.0025;

const TABLE_WORDS: usize = 1 << 12;
const ITERATIONS: usize = 600_000;

pub struct Calibrator {
    /// One table per kernel thread: a workload that keeps two cores busy
    /// is bracketed by the kernel running on two threads at once, since
    /// each core has its own neighbours.
    tables: Vec<Vec<u64>>,
    /// The most recent sample: the "before" of the next timed call.
    last: f64,
    /// Every sample taken, for the host-speed figure in the side file.
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose kernel runs on `threads` threads at once — as
    /// many as the workload itself keeps busy.
    pub fn new(threads: usize) -> Calibrator {
        let table: Vec<u64> = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut cal = Calibrator {
            tables: vec![table; threads.max(1)],
            last: REFERENCE_S,
            samples: Vec::new(),
        };
        // The first run pages the table in; the second is the first sample.
        cal.kernel();
        cal.sample();
        cal.samples.clear();
        cal
    }

    /// The mean kernel wall over the threads.
    fn kernel(&mut self) -> f64 {
        if let [table] = self.tables.as_mut_slice() {
            return Self::chains(table);
        }
        let walls: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tables
                .iter_mut()
                .map(|t| scope.spawn(|| Self::chains(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the kernel does not panic"))
                .collect()
        });
        walls.iter().sum::<f64>() / walls.len() as f64
    }

    fn chains(table: &mut [u64]) -> f64 {
        Self::chains_n(table, ITERATIONS)
    }

    pub fn chains_n(table: &mut [u64], iterations: usize) -> f64 {
        let t0 = Instant::now();
        let mask = TABLE_WORDS - 1;
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..iterations {
            a = a.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ table[i & mask];
            b = (b.rotate_left(7) ^ table[(i * 3) & mask]).wrapping_add(i as u64);
            c = c.wrapping_add(table[(i * 5) & mask] & b);
            d = (d ^ (d >> 13)).wrapping_mul(0x0000_0100_0000_01b3) ^ table[(i * 7) & mask];
            if (a ^ c) & 3 == 0 {
                table[(i * 11) & mask] = a ^ d;
            }
        }
        black_box((a, b, c, d));
        t0.elapsed().as_secs_f64()
    }

    /// Runs the kernel once and returns its wall.
    pub fn sample(&mut self) -> f64 {
        self.last = self.kernel();
        self.samples.push(self.last);
        self.last
    }

    /// The median of `n` fresh samples, for bracketing a long section (a
    /// service round) whose factor rests on two brackets only.
    pub fn settle(&mut self, n: usize) -> f64 {
        let fresh: Vec<f64> = (0..n).map(|_| self.sample()).collect();
        self.last = crate::metrics::median(&fresh);
        self.last
    }

    /// Runs `work` between two kernel samples (the previous call's "after"
    /// is this call's "before") and returns its wall in reference seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (f64, T) {
        let before = self.last;
        let t0 = Instant::now();
        let out = black_box(work());
        let wall = t0.elapsed().as_secs_f64();
        let after = self.sample();
        (wall * Self::factor(before, after), out)
    }

    /// What to multiply a wall measured between two samples by.
    pub fn factor(before: f64, after: f64) -> f64 {
        REFERENCE_S / ((before + after) / 2.0)
    }

    /// The most recent sample.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Median kernel wall over the run, relative to the reference: above
    /// one means the host ran slower than the reference box.
    pub fn host_slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        crate::metrics::median(&self.samples) / REFERENCE_S
    }
}
