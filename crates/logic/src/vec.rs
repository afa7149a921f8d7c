//! Arbitrary-width four-state bit vectors.

use crate::LogicBit;

/// Number of 64-bit words needed for `width` bits.
#[inline]
pub(crate) fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask for the valid bits of the top word of a `width`-bit vector.
#[inline]
pub(crate) fn top_word_mask(width: u32) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Backing storage: one inline word pair for widths up to 64 bits, a boxed
/// slice (`aval` words followed by `bval` words) beyond that.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Buf {
    Inline { aval: u64, bval: u64 },
    Heap(Box<[u64]>),
}

/// An arbitrary-width vector of four-state logic bits.
///
/// Bit 0 is the least significant bit. All operations keep the invariant
/// that bits at positions `>= width` are `0` in both planes, so structural
/// equality (`==`) is exact four-state value equality (the Verilog `===`
/// operator is [`LogicVec::case_eq`], which is the same thing; the four-state
/// `==` operator is [`LogicVec::logic_eq`]).
///
/// # Example
///
/// ```
/// use eraser_logic::LogicVec;
///
/// let a = LogicVec::from_u64(16, 1234);
/// let b = LogicVec::from_u64(16, 4321);
/// assert_eq!(a.add(&b).to_u64(), Some(5555));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: u32,
    buf: Buf,
}

impl LogicVec {
    /// Creates a vector of the given width with every bit `X`.
    ///
    /// This is the reset value of registers and undriven variables, matching
    /// event-driven simulator semantics.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new_x(width: u32) -> Self {
        Self::filled(width, LogicBit::X)
    }

    /// Creates a vector of the given width with every bit `0`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn zeros(width: u32) -> Self {
        Self::filled(width, LogicBit::Zero)
    }

    /// Creates a vector of the given width with every bit `1`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn ones(width: u32) -> Self {
        Self::filled(width, LogicBit::One)
    }

    /// Creates a vector with every bit set to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn filled(width: u32, bit: LogicBit) -> Self {
        assert!(width > 0, "LogicVec width must be positive");
        let (a, b) = bit.planes();
        let aw = if a { u64::MAX } else { 0 };
        let bw = if b { u64::MAX } else { 0 };
        Self::from_fn(width, |aval, bval| {
            aval.fill(aw);
            bval.fill(bw);
        })
    }

    /// Creates a vector from the low `width` bits of a `u64`.
    ///
    /// Bits of `value` above `width` are ignored; bits of the vector above
    /// bit 63 (for `width > 64`) are zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_u64(width: u32, value: u64) -> Self {
        assert!(width > 0, "LogicVec width must be positive");
        Self::from_fn(width, |aval, _bval| {
            aval[0] = value;
        })
    }

    /// Creates a 1-bit vector from a [`LogicBit`].
    pub fn from_bit(bit: LogicBit) -> Self {
        Self::filled(1, bit)
    }

    /// Creates a vector from bits given LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[LogicBit]) -> Self {
        assert!(!bits.is_empty(), "LogicVec must have at least one bit");
        let mut v = Self::zeros(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            v.set_bit(i as u32, b);
        }
        v
    }

    /// Builds a vector by letting `f` fill zeroed `aval`/`bval` planes, then
    /// normalizes bits above `width`.
    pub(crate) fn from_fn(width: u32, f: impl FnOnce(&mut [u64], &mut [u64])) -> Self {
        assert!(width > 0, "LogicVec width must be positive");
        let n = words_for(width);
        let mut v = if n == 1 {
            let mut aval = [0u64];
            let mut bval = [0u64];
            f(&mut aval, &mut bval);
            LogicVec {
                width,
                buf: Buf::Inline {
                    aval: aval[0],
                    bval: bval[0],
                },
            }
        } else {
            let mut words = vec![0u64; 2 * n].into_boxed_slice();
            let (aval, bval) = words.split_at_mut(n);
            f(aval, bval);
            LogicVec {
                width,
                buf: Buf::Heap(words),
            }
        };
        v.normalize();
        v
    }

    // ---- in-place storage management (the zero-allocation hot path) ----
    //
    // These methods reshape an existing vector without touching the
    // allocator whenever the backing storage already fits: widths up to 64
    // bits are always inline, and wider vectors reuse their boxed words
    // when the word count is unchanged. They are the foundation of the
    // `*_assign` operator variants in `ops.rs` and of the scratch-arena
    // expression evaluator in `eraser-ir`.

    /// Reshapes `self` into an all-zero vector of `width` bits, reusing the
    /// existing storage when possible.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn make_zeros(&mut self, width: u32) {
        assert!(width > 0, "LogicVec width must be positive");
        let n = words_for(width);
        if n == 1 {
            self.buf = Buf::Inline { aval: 0, bval: 0 };
        } else {
            match &mut self.buf {
                Buf::Heap(words) if words.len() == 2 * n => words.fill(0),
                _ => self.buf = Buf::Heap(vec![0u64; 2 * n].into_boxed_slice()),
            }
        }
        self.width = width;
    }

    /// Reshapes `self` into a vector of `width` bits all set to `bit`,
    /// reusing the existing storage when possible.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn make_filled(&mut self, width: u32, bit: LogicBit) {
        self.make_zeros(width);
        let (a, b) = bit.planes();
        let aw = if a { u64::MAX } else { 0 };
        let bw = if b { u64::MAX } else { 0 };
        let (av, bv) = self.planes_mut();
        av.fill(aw);
        bv.fill(bw);
        self.normalize();
    }

    /// Reshapes `self` into `width` bits of `X`, reusing storage. The
    /// in-place counterpart of [`LogicVec::new_x`].
    pub fn make_x(&mut self, width: u32) {
        self.make_filled(width, LogicBit::X);
    }

    /// Makes `self` an exact copy of `src`, reusing storage when possible.
    ///
    /// The in-place counterpart of `clone_from` that never allocates for
    /// widths up to 64 bits, nor when the word counts already match.
    #[inline]
    pub fn assign_from(&mut self, src: &LogicVec) {
        // Inline source: as cheap as the pre-change register-copy clone.
        if let Buf::Inline { aval, bval } = src.buf {
            self.width = src.width;
            self.buf = Buf::Inline { aval, bval };
            return;
        }
        self.copy_resized(src, src.width());
    }

    /// Makes `self` the value of `src` zero-extended or truncated to
    /// `new_width` — the in-place counterpart of [`LogicVec::resize`].
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero.
    pub fn copy_resized(&mut self, src: &LogicVec, new_width: u32) {
        assert!(new_width > 0, "LogicVec width must be positive");
        if new_width <= 64 {
            let mask = top_word_mask(new_width);
            self.width = new_width;
            self.buf = Buf::Inline {
                aval: src.avals()[0] & mask,
                bval: src.bvals()[0] & mask,
            };
            return;
        }
        self.make_zeros(new_width);
        let (sa, sb) = (src.avals(), src.bvals());
        let (a, b) = self.planes_mut();
        for (i, w) in a.iter_mut().enumerate() {
            *w = sa.get(i).copied().unwrap_or(0);
        }
        for (i, w) in b.iter_mut().enumerate() {
            *w = sb.get(i).copied().unwrap_or(0);
        }
        self.normalize();
    }

    /// Zero-extends or truncates `self` to `new_width` in place. A no-op on
    /// equal width; allocation-free unless the word count changes.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero.
    pub fn resize_assign(&mut self, new_width: u32) {
        assert!(new_width > 0, "LogicVec width must be positive");
        if new_width == self.width {
            return;
        }
        if words_for(new_width) == words_for(self.width) {
            self.width = new_width;
            self.normalize();
        } else {
            *self = self.resize(new_width);
        }
    }

    /// Makes `self` a 1-bit vector holding `bit`, without allocating.
    pub fn assign_bit(&mut self, bit: LogicBit) {
        let (a, b) = bit.planes();
        self.width = 1;
        self.buf = Buf::Inline {
            aval: a as u64,
            bval: b as u64,
        };
    }

    /// Makes `self` the low `width` bits of `value` — the in-place
    /// counterpart of [`LogicVec::from_u64`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn assign_u64(&mut self, width: u32, value: u64) {
        self.make_zeros(width);
        self.planes_mut().0[0] = value;
        self.normalize();
    }

    /// Consumes `self`, returning it resized to `new_width`. A true no-op
    /// (no clone, no allocation) when the width already matches — use this
    /// instead of [`LogicVec::resize`] when the value is owned.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero.
    pub fn into_width(mut self, new_width: u32) -> Self {
        self.resize_assign(new_width);
        self
    }

    /// The least-significant word of each plane as `(aval, bval)`.
    ///
    /// For vectors up to 64 bits wide this is the complete value (both
    /// planes are normalized, so bits at positions `>= width` are zero) —
    /// the read half of the batch lane gathers. Wider vectors return only
    /// their low word.
    #[inline]
    pub fn word_planes(&self) -> (u64, u64) {
        match &self.buf {
            Buf::Inline { aval, bval } => (*aval, *bval),
            Buf::Heap(words) => (words[0], words[words.len() / 2]),
        }
    }

    /// Makes `self` a `width`-bit vector (`width <= 64`) with the given
    /// plane words, masking bits at positions `>= width`. Never allocates —
    /// the write half of the batch lane scatters.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    #[inline]
    pub fn assign_word(&mut self, width: u32, aval: u64, bval: u64) {
        assert!(
            width > 0 && width <= 64,
            "assign_word width must be in 1..=64, got {width}"
        );
        let m = top_word_mask(width);
        self.set_inline(width, aval & m, bval & m);
    }

    /// The two planes as plain words when the value is inline (width <=
    /// 64), for branch-light fast paths in the operators.
    #[inline]
    pub(crate) fn inline_parts(&self) -> Option<(u64, u64)> {
        match self.buf {
            Buf::Inline { aval, bval } => Some((aval, bval)),
            _ => None,
        }
    }

    /// Replaces the value with inline planes (caller masks to `width`).
    #[inline]
    pub(crate) fn set_inline(&mut self, width: u32, aval: u64, bval: u64) {
        self.width = width;
        self.buf = Buf::Inline { aval, bval };
    }

    /// Mutable access to both planes (`aval`, `bval`), LSB word first.
    /// Callers must re-[`normalize`](Self::normalize) if they may set bits
    /// at positions `>= width`.
    #[inline]
    pub(crate) fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.buf {
            Buf::Inline { aval, bval } => (std::slice::from_mut(aval), std::slice::from_mut(bval)),
            Buf::Heap(words) => {
                let n = words.len() / 2;
                words.split_at_mut(n)
            }
        }
    }

    /// Masks off bits above `width` in both planes.
    pub(crate) fn normalize(&mut self) {
        let mask = top_word_mask(self.width);
        match &mut self.buf {
            Buf::Inline { aval, bval } => {
                *aval &= mask;
                *bval &= mask;
            }
            Buf::Heap(words) => {
                let n = words.len() / 2;
                words[n - 1] &= mask;
                words[2 * n - 1] &= mask;
            }
        }
    }

    /// The width in bits. Always at least 1.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The `aval` plane words (LSB word first).
    #[inline]
    pub fn avals(&self) -> &[u64] {
        match &self.buf {
            Buf::Inline { aval, .. } => std::slice::from_ref(aval),
            Buf::Heap(words) => &words[..words.len() / 2],
        }
    }

    /// The `bval` plane words (LSB word first).
    #[inline]
    pub fn bvals(&self) -> &[u64] {
        match &self.buf {
            Buf::Inline { bval, .. } => std::slice::from_ref(bval),
            Buf::Heap(words) => &words[words.len() / 2..],
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`. Use [`LogicVec::bit_or_x`] for dynamic
    /// (possibly out-of-range) indices.
    #[inline]
    pub fn bit(&self, i: u32) -> LogicBit {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let w = (i / 64) as usize;
        let m = 1u64 << (i % 64);
        LogicBit::from_planes(self.avals()[w] & m != 0, self.bvals()[w] & m != 0)
    }

    /// Reads bit `i`, returning `X` if `i` is out of range — the Verilog
    /// semantics of an out-of-bounds bit select.
    #[inline]
    pub fn bit_or_x(&self, i: u32) -> LogicBit {
        if i < self.width {
            self.bit(i)
        } else {
            LogicBit::X
        }
    }

    /// Sets bit `i` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u32, bit: LogicBit) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let w = (i / 64) as usize;
        let m = 1u64 << (i % 64);
        let (a, b) = bit.planes();
        let n = words_for(self.width);
        match &mut self.buf {
            Buf::Inline { aval, bval } => {
                if a {
                    *aval |= m
                } else {
                    *aval &= !m
                }
                if b {
                    *bval |= m
                } else {
                    *bval &= !m
                }
            }
            Buf::Heap(words) => {
                if a {
                    words[w] |= m
                } else {
                    words[w] &= !m
                }
                if b {
                    words[n + w] |= m
                } else {
                    words[n + w] &= !m
                }
            }
        }
    }

    /// True if no bit is `X` or `Z`.
    #[inline]
    pub fn is_fully_defined(&self) -> bool {
        self.bvals().iter().all(|&w| w == 0)
    }

    /// True if any bit is `X` or `Z`.
    #[inline]
    pub fn has_unknown(&self) -> bool {
        !self.is_fully_defined()
    }

    /// True if the value is fully defined and every bit is `0`.
    pub fn is_zero(&self) -> bool {
        self.is_fully_defined() && self.avals().iter().all(|&w| w == 0)
    }

    /// Converts to `u64` if fully defined and the value fits in 64 bits.
    pub fn to_u64(&self) -> Option<u64> {
        if !self.is_fully_defined() {
            return None;
        }
        let avals = self.avals();
        if avals[1..].iter().any(|&w| w != 0) {
            return None;
        }
        Some(avals[0])
    }

    /// Iterates over the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = LogicBit> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }

    /// Zero-extends or truncates to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero.
    pub fn resize(&self, new_width: u32) -> Self {
        if new_width == self.width {
            return self.clone();
        }
        let (sa, sb) = (self.avals(), self.bvals());
        Self::from_fn(new_width, |aval, bval| {
            for (i, w) in aval.iter_mut().enumerate() {
                *w = sa.get(i).copied().unwrap_or(0);
            }
            for (i, w) in bval.iter_mut().enumerate() {
                *w = sb.get(i).copied().unwrap_or(0);
            }
        })
    }

    /// Extracts bits `hi..=lo` (inclusive, `hi >= lo`) as a new vector of
    /// width `hi - lo + 1`.
    ///
    /// Bits beyond the source width read as `X` (out-of-range part select).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo`.
    pub fn slice(&self, hi: u32, lo: u32) -> Self {
        let mut out = Self::zeros(1);
        self.slice_into(hi, lo, &mut out);
        out
    }

    /// In-place variant of [`LogicVec::slice`]: writes bits `hi..=lo` of
    /// `self` into `out`, which is reshaped to width `hi - lo + 1`.
    /// Word-parallel and allocation-free (up to the usual word-count caveat
    /// on `out`).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo`.
    pub fn slice_into(&self, hi: u32, lo: u32, out: &mut LogicVec) {
        assert!(hi >= lo, "slice hi ({hi}) must be >= lo ({lo})");
        let out_w = hi - lo + 1;
        // Inline fast path: shift, X-fill the out-of-range tail, mask.
        if out_w <= 64 {
            if let Some((a, b)) = self.inline_parts() {
                let (mut oa, mut ob) = if lo < 64 { (a >> lo, b >> lo) } else { (0, 0) };
                if hi >= self.width {
                    let from = self.width.saturating_sub(lo);
                    let xm = if from >= 64 { 0 } else { !((1u64 << from) - 1) };
                    oa |= xm;
                    ob |= xm;
                }
                let m = top_word_mask(out_w);
                out.set_inline(out_w, oa & m, ob & m);
                return;
            }
        }
        out.make_zeros(out_w);
        let ws = (lo / 64) as usize;
        let bs = lo % 64;
        let gather = |src: &[u64], i: usize| -> u64 {
            let low = src.get(i + ws).copied().unwrap_or(0) >> bs;
            let high = if bs > 0 {
                src.get(i + ws + 1).copied().unwrap_or(0) << (64 - bs)
            } else {
                0
            };
            low | high
        };
        let (sa, sb) = (self.avals(), self.bvals());
        {
            let (oa, ob) = out.planes_mut();
            for i in 0..oa.len() {
                oa[i] = gather(sa, i);
                ob[i] = gather(sb, i);
            }
        }
        // Bits beyond the source width read as X (out-of-range part
        // select): force X from the first out-of-range output bit on.
        if hi >= self.width {
            let from = self.width.saturating_sub(lo);
            let (oa, ob) = out.planes_mut();
            let start = (from / 64) as usize;
            for i in start..oa.len() {
                let m = if i == start {
                    !((1u64 << (from % 64)) - 1)
                } else {
                    u64::MAX
                };
                oa[i] |= m;
                ob[i] |= m;
            }
        }
        out.normalize();
    }

    /// Writes `value` into bits `lo..lo + value.width()`.
    ///
    /// Bits of `value` that would land above `self.width()` are dropped —
    /// the Verilog semantics of an out-of-range part-select store.
    /// Word-parallel; never allocates.
    pub fn assign_slice(&mut self, lo: u32, value: &LogicVec) {
        if lo >= self.width {
            return;
        }
        let n_bits = value.width().min(self.width - lo);
        // Inline fast path: one mask-and-merge.
        if let (Some((ta, tb)), Some((va, vb))) = (self.inline_parts(), value.inline_parts()) {
            let mask = (if n_bits == 64 {
                u64::MAX
            } else {
                (1u64 << n_bits) - 1
            }) << lo;
            self.set_inline(
                self.width,
                (ta & !mask) | ((va << lo) & mask),
                (tb & !mask) | ((vb << lo) & mask),
            );
            return;
        }
        let (va, vb) = (value.avals(), value.bvals());
        // 64 bits of a plane starting at `bit` (zero-padded past the end).
        let window = |src: &[u64], bit: u32| -> u64 {
            let wi = (bit / 64) as usize;
            let sh = bit % 64;
            let low = src.get(wi).copied().unwrap_or(0) >> sh;
            let high = if sh > 0 {
                src.get(wi + 1).copied().unwrap_or(0) << (64 - sh)
            } else {
                0
            };
            low | high
        };
        let (a, b) = self.planes_mut();
        let mut written = 0u32;
        while written < n_bits {
            let dst_bit = lo + written;
            let di = (dst_bit / 64) as usize;
            let off = dst_bit % 64;
            let take = (64 - off).min(n_bits - written);
            let mask = if take == 64 {
                u64::MAX
            } else {
                ((1u64 << take) - 1) << off
            };
            let sa = window(va, written);
            let sb = window(vb, written);
            a[di] = (a[di] & !mask) | ((sa << off) & mask);
            b[di] = (b[di] & !mask) | ((sb << off) & mask);
            written += take;
        }
    }

    /// Concatenates `parts`, given LSB-part first.
    ///
    /// Note the argument order is the *reverse* of Verilog source syntax:
    /// `{a, b}` in Verilog places `a` at the MSBs, so it corresponds to
    /// `LogicVec::concat_lsb_first(&[&b, &a])`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_lsb_first(parts: &[&LogicVec]) -> Self {
        assert!(!parts.is_empty(), "concat needs at least one part");
        let total: u32 = parts.iter().map(|p| p.width()).sum();
        let mut out = Self::zeros(total);
        let mut lo = 0;
        for p in parts {
            out.assign_slice(lo, p);
            lo += p.width();
        }
        out
    }

    /// Repeats this vector `n` times: Verilog `{n{v}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicate(&self, n: u32) -> Self {
        assert!(n > 0, "replication count must be positive");
        let mut out = Self::zeros(self.width * n);
        for k in 0..n {
            out.assign_slice(k * self.width, self);
        }
        out
    }
}

impl Default for LogicVec {
    /// A single `X` bit.
    fn default() -> Self {
        LogicVec::new_x(1)
    }
}

impl From<LogicBit> for LogicVec {
    fn from(bit: LogicBit) -> Self {
        LogicVec::from_bit(bit)
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> Self {
        LogicVec::from_bit(LogicBit::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_roundtrip() {
        let v = LogicVec::from_u64(32, 0xdead_beef);
        assert_eq!(v.to_u64(), Some(0xdead_beef));
        assert_eq!(v.width(), 32);
    }

    #[test]
    fn from_u64_truncates() {
        let v = LogicVec::from_u64(8, 0x1ff);
        assert_eq!(v.to_u64(), Some(0xff));
    }

    #[test]
    fn wide_vector_words() {
        let v = LogicVec::from_u64(256, 42);
        assert_eq!(v.avals().len(), 4);
        assert_eq!(v.to_u64(), Some(42));
        assert!(v.is_fully_defined());
    }

    #[test]
    fn new_x_is_unknown() {
        let v = LogicVec::new_x(65);
        assert!(v.has_unknown());
        assert_eq!(v.to_u64(), None);
        for i in 0..65 {
            assert_eq!(v.bit(i), LogicBit::X);
        }
    }

    #[test]
    fn set_and_get_bits() {
        let mut v = LogicVec::zeros(100);
        v.set_bit(0, LogicBit::One);
        v.set_bit(63, LogicBit::X);
        v.set_bit(64, LogicBit::Z);
        v.set_bit(99, LogicBit::One);
        assert_eq!(v.bit(0), LogicBit::One);
        assert_eq!(v.bit(63), LogicBit::X);
        assert_eq!(v.bit(64), LogicBit::Z);
        assert_eq!(v.bit(99), LogicBit::One);
        assert_eq!(v.bit(50), LogicBit::Zero);
    }

    #[test]
    fn bit_or_x_out_of_range() {
        let v = LogicVec::zeros(4);
        assert_eq!(v.bit_or_x(3), LogicBit::Zero);
        assert_eq!(v.bit_or_x(4), LogicBit::X);
    }

    #[test]
    fn resize_zero_extends() {
        let v = LogicVec::from_u64(8, 0xab);
        assert_eq!(v.resize(16).to_u64(), Some(0xab));
        assert_eq!(v.resize(4).to_u64(), Some(0xb));
        assert_eq!(v.resize(128).to_u64(), Some(0xab));
    }

    #[test]
    fn slice_and_assign_slice() {
        let v = LogicVec::from_u64(16, 0xabcd);
        assert_eq!(v.slice(7, 4).to_u64(), Some(0xc));
        assert_eq!(v.slice(15, 8).to_u64(), Some(0xab));
        let mut w = LogicVec::zeros(16);
        w.assign_slice(4, &LogicVec::from_u64(4, 0xf));
        assert_eq!(w.to_u64(), Some(0x00f0));
    }

    #[test]
    fn slice_out_of_range_reads_x() {
        let v = LogicVec::from_u64(4, 0xf);
        let s = v.slice(5, 2);
        assert_eq!(s.bit(0), LogicBit::One);
        assert_eq!(s.bit(1), LogicBit::One);
        assert_eq!(s.bit(2), LogicBit::X);
        assert_eq!(s.bit(3), LogicBit::X);
    }

    #[test]
    fn concat_lsb_first_order() {
        // Verilog {a, b} with a = 4'hA, b = 4'h5  =>  8'hA5.
        let a = LogicVec::from_u64(4, 0xa);
        let b = LogicVec::from_u64(4, 0x5);
        let c = LogicVec::concat_lsb_first(&[&b, &a]);
        assert_eq!(c.to_u64(), Some(0xa5));
        assert_eq!(c.width(), 8);
    }

    #[test]
    fn replicate_repeats() {
        let v = LogicVec::from_u64(4, 0x9);
        assert_eq!(v.replicate(3).to_u64(), Some(0x999));
    }

    #[test]
    fn equality_is_four_state() {
        let mut a = LogicVec::zeros(4);
        let mut b = LogicVec::zeros(4);
        a.set_bit(2, LogicBit::X);
        assert_ne!(a, b);
        b.set_bit(2, LogicBit::X);
        assert_eq!(a, b);
        b.set_bit(2, LogicBit::Z);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        LogicVec::zeros(0);
    }
}
