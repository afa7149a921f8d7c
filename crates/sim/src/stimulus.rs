//! Cycle-stepped input stimuli shared by all simulation engines.
//!
//! # Layout
//!
//! A stimulus is a list of settle steps, each a short list of
//! `(input, value)` changes. [`Steps`] stores the changes of consecutive
//! steps back to back in **bounded chunks** of at most
//! [`Steps::CHUNK_CHANGES`] changes. The index is one `u32` per step,
//! where its changes end in its chunk, plus the first step of each chunk.
//! A step never straddles two chunks: one that does not fit in the
//! current chunk opens the next, and one longer than a chunk gets a chunk
//! of its own, sized to it. Building a stimulus of `n` changes thus costs
//! `O(n / CHUNK_CHANGES)` heap blocks plus the index, not one or two
//! blocks per clock cycle, and replaying it allocates nothing. Walking the
//! steps in order costs O(1) per step; `steps[k]` finds its chunk by a
//! binary search over the chunk list.
//!
//! The bound is deliberate. A chunk is 40 KiB, under glibc's default
//! 128 KiB mmap threshold, so chunks come from the arena and freeing them
//! never moves that threshold. One flat array of every change measured
//! worse: freeing a multi-megabyte block raises glibc's dynamic mmap
//! threshold, after which such blocks stay resident in the worker
//! threads' arenas and a long-running service's peak RSS grows.

use std::fmt;
use std::ops::Index;

use eraser_ir::SignalId;
use eraser_logic::LogicVec;

/// One chunk of consecutive steps' changes.
type Chunk = Vec<(SignalId, LogicVec)>;

/// The settle steps of a [`Stimulus`], in bounded chunks (see the module
/// docs for the layout and why the chunks are bounded).
///
/// Step `k` reads as a slice, `&steps[k]`; [`Steps::iter`] and
/// [`Steps::iter_from`] walk the steps in order. Equality compares
/// contents, not chunking.
#[derive(Clone, Default)]
pub struct Steps {
    chunks: Vec<Chunk>,
    /// Per chunk, the number of the first step it holds.
    firsts: Vec<u32>,
    /// Per step, where its changes end in its chunk. They start where the
    /// previous step's changes end, or at 0 for a chunk's first step.
    ends: Vec<u32>,
}

impl Steps {
    /// Changes per chunk: 1 024 changes of 40 bytes, 40 KiB. A step with
    /// more changes gets a chunk of its own.
    pub const CHUNK_CHANGES: usize = 1024;

    /// Number of settle steps.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no steps.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The changes of step `k`, or `None` past the end.
    pub fn get(&self, k: usize) -> Option<&[(SignalId, LogicVec)]> {
        (k < self.len()).then(|| self.step_in(self.chunk_of(k), k))
    }

    /// Every step in order.
    pub fn iter(&self) -> StepIter<'_> {
        self.iter_from(0)
    }

    /// The steps from `k` on, in order; empty when `k >= self.len()`.
    pub fn iter_from(&self, k: usize) -> StepIter<'_> {
        let next = k.min(self.len());
        StepIter {
            steps: self,
            chunk: self.chunk_of(next),
            next,
        }
    }

    /// No steps yet, with index room for `steps`.
    fn with_capacity(steps: usize) -> Self {
        Steps {
            ends: Vec::with_capacity(steps),
            ..Steps::default()
        }
    }

    /// The chunk holding step `k` (the last chunk when `k` is past the
    /// end): a binary search over the chunk list, which is short.
    fn chunk_of(&self, k: usize) -> usize {
        self.firsts
            .partition_point(|&first| first as usize <= k)
            .saturating_sub(1)
    }

    /// Step `k`, which chunk `c` holds.
    fn step_in(&self, c: usize, k: usize) -> &[(SignalId, LogicVec)] {
        let start = if self.firsts[c] as usize == k {
            0
        } else {
            self.ends[k - 1] as usize
        };
        &self.chunks[c][start..self.ends[k] as usize]
    }

    /// Appends one step of `len` changes, which `write` pushes onto the
    /// chunk it lands in. The chunk has room for all of them, so `write`
    /// never reallocates it.
    fn push_step(&mut self, len: usize, write: impl FnOnce(&mut Chunk)) {
        let fits = (self.chunks.last()).is_some_and(|c| c.capacity() - c.len() >= len);
        if !fits {
            // Step numbers and offsets are u32: a stimulus would need 4
            // billion steps, or one step of 4 billion changes, to
            // overflow them.
            assert!(
                len <= u32::MAX as usize && self.len() < u32::MAX as usize,
                "stimulus too large to index"
            );
            self.firsts.push(self.len() as u32);
            self.chunks
                .push(Vec::with_capacity(len.max(Self::CHUNK_CHANGES)));
        }
        let at = self.chunks.len() - 1;
        let chunk = &mut self.chunks[at];
        let start = chunk.len();
        write(chunk);
        debug_assert_eq!(chunk.len(), start + len, "a step wrote the wrong length");
        self.ends.push(chunk.len() as u32);
    }
}

impl Index<usize> for Steps {
    type Output = [(SignalId, LogicVec)];

    fn index(&self, k: usize) -> &Self::Output {
        self.step_in(self.chunk_of(k), k)
    }
}

impl PartialEq for Steps {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Steps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Steps {
    type Item = &'a [(SignalId, LogicVec)];
    type IntoIter = StepIter<'a>;

    fn into_iter(self) -> StepIter<'a> {
        self.iter()
    }
}

/// Iterator over the steps of a [`Steps`], each a slice of changes. It
/// follows the chunks along, so each step costs O(1).
#[derive(Debug, Clone)]
pub struct StepIter<'a> {
    steps: &'a Steps,
    chunk: usize,
    next: usize,
}

impl<'a> Iterator for StepIter<'a> {
    type Item = &'a [(SignalId, LogicVec)];

    fn next(&mut self) -> Option<Self::Item> {
        let (steps, k) = (self.steps, self.next);
        if k == steps.len() {
            return None;
        }
        if steps.firsts.get(self.chunk + 1) == Some(&(k as u32)) {
            self.chunk += 1;
        }
        self.next += 1;
        Some(steps.step_in(self.chunk, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.steps.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StepIter<'_> {}

/// A deterministic input waveform: per settle-step, the list of input
/// changes to apply.
///
/// Every engine (good simulation, ERASER, every baseline) replays the same
/// `Stimulus`, which is what makes fault-coverage parity checks meaningful.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stimulus {
    /// One entry per settle step; each entry is the set of `(input, value)`
    /// changes applied before settling.
    pub steps: Steps,
}

impl Stimulus {
    /// Number of settle steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of clock cycles if built with
    /// [`StimulusBuilder::add_cycle`] (two steps per cycle).
    pub fn num_cycles(&self) -> usize {
        self.steps.len() / 2
    }

    /// The stimulus of the first `n` steps (all of them if `n` exceeds
    /// the length).
    pub fn prefix(&self, n: usize) -> Stimulus {
        let mut steps = Steps::with_capacity(n.min(self.steps.len()));
        for step in self.steps.iter().take(n) {
            steps.push_step(step.len(), |chunk| chunk.extend_from_slice(step));
        }
        Stimulus { steps }
    }
}

/// Builder for [`Stimulus`] waveforms.
///
/// # Example
///
/// ```
/// use eraser_ir::SignalId;
/// use eraser_logic::LogicVec;
/// use eraser_sim::StimulusBuilder;
///
/// let clk = SignalId(0);
/// let data = SignalId(1);
/// let mut b = StimulusBuilder::with_capacity(4);
/// for i in 0..4 {
///     b.add_cycle(clk, &[(data, LogicVec::from_u64(8, i))]);
/// }
/// let stim = b.finish();
/// assert_eq!(stim.num_cycles(), 4);
/// assert_eq!(stim.steps[2], [(clk, LogicVec::from_u64(1, 0)), (data, LogicVec::from_u64(8, 1))]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StimulusBuilder {
    steps: Steps,
}

impl StimulusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder whose step index has room for `cycles`
    /// clock cycles (two steps each), so a generator that knows its
    /// length never regrows the index.
    pub fn with_capacity(cycles: usize) -> Self {
        Self {
            steps: Steps::with_capacity(2 * cycles),
        }
    }

    /// Appends a raw settle step applying `changes`.
    pub fn add_step(&mut self, changes: Vec<(SignalId, LogicVec)>) -> &mut Self {
        self.steps
            .push_step(changes.len(), |chunk| chunk.extend(changes));
        self
    }

    /// Appends one full clock cycle: a step driving `clk` low together with
    /// `changes`, then a step driving `clk` high (the rising edge samples
    /// the new inputs).
    pub fn add_cycle(&mut self, clk: SignalId, changes: &[(SignalId, LogicVec)]) -> &mut Self {
        self.steps.push_step(1 + changes.len(), |chunk| {
            chunk.push((clk, LogicVec::from_u64(1, 0)));
            chunk.extend_from_slice(changes);
        });
        self.steps
            .push_step(1, |chunk| chunk.push((clk, LogicVec::from_u64(1, 1))));
        self
    }

    /// Finalizes the stimulus.
    pub fn finish(self) -> Stimulus {
        Stimulus { steps: self.steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: usize = Steps::CHUNK_CHANGES;

    fn v(w: u32, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    /// `n` distinct changes, starting at input `from`.
    fn changes(from: u32, n: usize) -> Vec<(SignalId, LogicVec)> {
        (0..n as u32)
            .map(|i| (SignalId(from + i), v(16, u64::from(i))))
            .collect()
    }

    #[test]
    fn cycles_count() {
        let clk = SignalId(0);
        let mut b = StimulusBuilder::new();
        b.add_cycle(clk, &[]);
        b.add_cycle(clk, &[(SignalId(1), LogicVec::from_u64(4, 2))]);
        let s = b.finish();
        assert_eq!(s.num_steps(), 4);
        assert_eq!(s.num_cycles(), 2);
        assert_eq!(s.steps[2].len(), 2);
    }

    #[test]
    fn a_chunk_stays_under_the_mmap_threshold() {
        let change = std::mem::size_of::<(SignalId, LogicVec)>();
        assert!(change * CHUNK <= 40 * 1024, "{change} bytes per change");
    }

    #[test]
    fn a_step_ending_at_a_chunk_edge_fills_it_exactly() {
        let mut b = StimulusBuilder::new();
        b.add_step(changes(0, CHUNK - 3));
        b.add_step(changes(100, 3));
        b.add_step(changes(200, 1));
        let s = b.finish();
        assert_eq!(s.steps.chunks.len(), 2);
        assert_eq!(s.steps.chunks[0].len(), CHUNK);
        assert_eq!(s.steps[1], changes(100, 3)[..]);
        assert_eq!(s.steps[2], changes(200, 1)[..]);
    }

    #[test]
    fn a_step_that_would_straddle_a_chunk_edge_opens_the_next() {
        let mut b = StimulusBuilder::new();
        b.add_step(changes(0, CHUNK - 2));
        b.add_step(changes(100, 3));
        let s = b.finish();
        assert_eq!(s.steps.chunks.len(), 2);
        assert_eq!(s.steps.chunks[0].len(), CHUNK - 2);
        assert_eq!(s.steps[0], changes(0, CHUNK - 2)[..]);
        assert_eq!(s.steps[1], changes(100, 3)[..]);
    }

    #[test]
    fn a_step_longer_than_a_chunk_gets_a_chunk_of_its_own() {
        let clk = SignalId(0);
        let long = changes(1, 2 * CHUNK + 5);
        let mut b = StimulusBuilder::new();
        b.add_cycle(clk, &changes(1, 4));
        b.add_cycle(clk, &long);
        b.add_cycle(clk, &changes(1, 2));
        let s = b.finish();
        assert_eq!(s.num_steps(), 6);
        assert_eq!(s.steps[2].len(), 2 * CHUNK + 6);
        assert_eq!(s.steps[2][1..], long[..]);
        assert_eq!(s.steps[4][1..], changes(1, 2)[..]);
        // Before, the long step alone, after: the long chunk is full.
        assert_eq!(s.steps.chunks.len(), 3);
        assert_eq!(s.steps.chunks[1].len(), 2 * CHUNK + 6);
    }

    #[test]
    fn empty_steps_are_steps() {
        let clk = SignalId(0);
        let mut b = StimulusBuilder::new();
        b.add_step(vec![]);
        b.add_cycle(clk, &[]);
        b.add_step(vec![]);
        let s = b.finish();
        assert_eq!(s.num_steps(), 4);
        assert!(s.steps[0].is_empty() && s.steps[3].is_empty());
        assert_eq!(s.steps[1], [(clk, v(1, 0))]);
        assert_eq!(s.steps[2], [(clk, v(1, 1))]);
        assert_eq!(s.steps.get(4), None);
        assert!(Stimulus::default().steps.is_empty());
    }

    #[test]
    fn wide_values_keep_every_bit() {
        let clk = SignalId(0);
        let mut wide = LogicVec::zeros(512);
        for w in 0..8 {
            wide.assign_slice(w * 64, &v(64, 0x0123_4567_89ab_cdef ^ u64::from(w)));
        }
        let mut b = StimulusBuilder::new();
        b.add_cycle(clk, &[(SignalId(1), wide.clone())]);
        let s = b.finish();
        assert_eq!(s.steps[0][1], (SignalId(1), wide));
    }

    #[test]
    fn iter_from_is_iter_skipped() {
        let clk = SignalId(0);
        let mut b = StimulusBuilder::with_capacity(700);
        for i in 0..700 {
            b.add_cycle(clk, &changes(1, i % 5));
        }
        let s = b.finish();
        assert!(s.steps.chunks.len() > 1);
        for k in [0, 1, 511, 1024, 1399, 1400, 5000] {
            assert!(s.steps.iter_from(k).eq(s.steps.iter().skip(k)), "k = {k}");
            assert_eq!(s.steps.iter_from(k).len(), 1400usize.saturating_sub(k));
        }
        assert!((&s.steps).into_iter().eq((0..1400).map(|k| &s.steps[k])));
    }

    #[test]
    fn prefix_keeps_the_first_steps() {
        let clk = SignalId(0);
        let build = |cycles: usize| {
            let mut b = StimulusBuilder::new();
            for i in 0..cycles {
                b.add_cycle(clk, &changes(1, i % 7));
            }
            b.finish()
        };
        let s = build(600);
        assert_eq!(s.prefix(2 * 250), build(250));
        let odd = s.prefix(11);
        assert_eq!(odd.num_steps(), 11);
        assert!(odd.steps.iter().eq(s.steps.iter().take(11)));
        assert_eq!(s.prefix(5000), s);
        assert!(s.prefix(0).steps.is_empty());
    }

    #[test]
    fn two_builds_from_the_same_calls_compare_equal() {
        let build = |last: u64| {
            let mut b = StimulusBuilder::new();
            for i in 0..300u64 {
                b.add_cycle(SignalId(0), &changes(1, (i % 9) as usize));
            }
            b.add_step(vec![(SignalId(1), v(8, last))]);
            b.finish()
        };
        assert_eq!(build(3), build(3));
        assert_ne!(build(3), build(4));
        assert_ne!(build(3), build(3).prefix(600));
    }
}
