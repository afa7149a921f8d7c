//! The RTL operator set on [`LogicVec`].
//!
//! All binary operations self-extend both operands to the wider of the two
//! widths (zero-extension), evaluate, and produce a result of that width —
//! the simplified width model documented in the frontend. Comparison and
//! reduction operators produce a [`LogicBit`].
//!
//! Arithmetic is unsigned and pessimistic about unknowns: any `X`/`Z` bit in
//! any operand yields an all-`X` result, as in mainstream event-driven
//! simulators.
//!
//! Every hot operator exists in two forms: an **in-place** variant
//! (`and_assign`, `add_assign`, `not_assign`, `shl_vec_assign`,
//! `merge_x_assign`, ...) that mutates the left operand without touching
//! the allocator (for widths up to 64 bits, and for wider values whose word
//! count is unchanged), and the original **pure** form, kept as a thin
//! wrapper that clones and delegates. Comparisons and reductions operate on
//! zero-padded words directly and never allocate.

use crate::vec::{top_word_mask, words_for};
use crate::{LogicBit, LogicVec};

/// Word `i` of a plane, reading past the end as zero — the word-level view
/// of zero-extension to a common width.
#[inline]
fn padded(words: &[u64], i: usize) -> u64 {
    words.get(i).copied().unwrap_or(0)
}

impl LogicVec {
    /// Widens `self` to the common (max) width and combines the planes
    /// word-by-word with `rhs` (zero-padded) in place.
    fn bitwise_assign_with(
        &mut self,
        rhs: &LogicVec,
        f: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    ) {
        let w = self.width().max(rhs.width());
        // Inline fast path: both operands are single (normalized) words.
        if let (Some((la, lb)), Some((ra, rb))) = (self.inline_parts(), rhs.inline_parts()) {
            let (a, b) = f(la, lb, ra, rb);
            let m = top_word_mask(w);
            self.set_inline(w, a & m, b & m);
            return;
        }
        self.resize_assign(w);
        let (ra, rb) = (rhs.avals(), rhs.bvals());
        let (a, b) = self.planes_mut();
        for i in 0..a.len() {
            let (na, nb) = f(a[i], b[i], padded(ra, i), padded(rb, i));
            a[i] = na;
            b[i] = nb;
        }
        self.normalize();
    }

    /// In-place bitwise four-state AND: `self = self & rhs` at the common
    /// width. Allocation-free unless `self` must grow across a word count.
    pub fn and_assign(&mut self, rhs: &LogicVec) {
        self.bitwise_assign_with(rhs, |la, lb, ra, rb| {
            let def0 = (!la & !lb) | (!ra & !rb);
            let x = (lb | rb) & !def0;
            let one = (la & !lb) & (ra & !rb);
            (one | x, x)
        })
    }

    /// In-place bitwise four-state OR.
    pub fn or_assign(&mut self, rhs: &LogicVec) {
        self.bitwise_assign_with(rhs, |la, lb, ra, rb| {
            let one = (la & !lb) | (ra & !rb);
            let x = (lb | rb) & !one;
            (one | x, x)
        })
    }

    /// In-place bitwise four-state XOR.
    pub fn xor_assign(&mut self, rhs: &LogicVec) {
        self.bitwise_assign_with(rhs, |la, lb, ra, rb| {
            let x = lb | rb;
            (((la ^ ra) & !x) | x, x)
        })
    }

    /// In-place bitwise four-state XNOR.
    pub fn xnor_assign(&mut self, rhs: &LogicVec) {
        self.bitwise_assign_with(rhs, |la, lb, ra, rb| {
            let x = lb | rb;
            ((!(la ^ ra) & !x) | x, x)
        })
    }

    /// In-place bitwise four-state NOT.
    pub fn not_assign(&mut self) {
        if let Some((a, b)) = self.inline_parts() {
            let m = top_word_mask(self.width());
            self.set_inline(self.width(), ((!a & !b) | b) & m, b);
            return;
        }
        let (a, b) = self.planes_mut();
        for i in 0..a.len() {
            let (av, bv) = (a[i], b[i]);
            a[i] = (!av & !bv) | bv;
        }
        self.normalize();
    }

    /// Bitwise four-state AND.
    pub fn and(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.and_assign(rhs);
        out
    }

    /// Bitwise four-state OR.
    pub fn or(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.or_assign(rhs);
        out
    }

    /// Bitwise four-state XOR.
    pub fn xor(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }

    /// Bitwise four-state XNOR.
    pub fn xnor(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.xnor_assign(rhs);
        out
    }

    /// Bitwise four-state NOT.
    pub fn not(&self) -> LogicVec {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// In-place addition modulo `2^w` where `w = max(widths)`; all-`X` on
    /// unknowns.
    pub fn add_assign(&mut self, rhs: &LogicVec) {
        let w = self.width().max(rhs.width());
        if let (Some((la, lb)), Some((ra, rb))) = (self.inline_parts(), rhs.inline_parts()) {
            let m = top_word_mask(w);
            if lb | rb == 0 {
                self.set_inline(w, la.wrapping_add(ra) & m, 0);
            } else {
                self.set_inline(w, m, m); // all-X
            }
            return;
        }
        if self.has_unknown() || rhs.has_unknown() {
            self.make_x(w);
            return;
        }
        self.resize_assign(w);
        let ra = rhs.avals();
        let (a, _) = self.planes_mut();
        let mut carry = 0u64;
        for (i, slot) in a.iter_mut().enumerate() {
            let (s1, c1) = slot.overflowing_add(padded(ra, i));
            let (s2, c2) = s1.overflowing_add(carry);
            *slot = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        self.normalize();
    }

    /// In-place subtraction modulo `2^w`; all-`X` on unknowns.
    pub fn sub_assign(&mut self, rhs: &LogicVec) {
        let w = self.width().max(rhs.width());
        if let (Some((la, lb)), Some((ra, rb))) = (self.inline_parts(), rhs.inline_parts()) {
            let m = top_word_mask(w);
            if lb | rb == 0 {
                self.set_inline(w, la.wrapping_sub(ra) & m, 0);
            } else {
                self.set_inline(w, m, m); // all-X
            }
            return;
        }
        if self.has_unknown() || rhs.has_unknown() {
            self.make_x(w);
            return;
        }
        self.resize_assign(w);
        let ra = rhs.avals();
        let (a, _) = self.planes_mut();
        let mut borrow = 0u64;
        for (i, slot) in a.iter_mut().enumerate() {
            let (d1, b1) = slot.overflowing_sub(padded(ra, i));
            let (d2, b2) = d1.overflowing_sub(borrow);
            *slot = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.normalize();
    }

    /// In-place two's-complement negation; all-`X` on unknowns.
    pub fn neg_assign(&mut self) {
        if self.has_unknown() {
            let w = self.width();
            self.make_x(w);
            return;
        }
        let (a, _) = self.planes_mut();
        let mut carry = 1u64;
        for slot in a.iter_mut() {
            let (s, c) = (!*slot).overflowing_add(carry);
            *slot = s;
            carry = c as u64;
        }
        self.normalize();
    }

    /// Addition modulo `2^w` where `w = max(widths)`; all-`X` on unknowns.
    pub fn add(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// Subtraction modulo `2^w`; all-`X` on unknowns.
    pub fn sub(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.sub_assign(rhs);
        out
    }

    /// Two's-complement negation; all-`X` on unknowns.
    pub fn neg(&self) -> LogicVec {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// Multiplication modulo `2^w` written into `out` (which must not alias
    /// an operand — guaranteed by `&mut`); all-`X` on unknowns.
    /// Allocation-free when `out`'s storage already fits `w` bits.
    pub fn mul_into(&self, rhs: &LogicVec, out: &mut LogicVec) {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() {
            out.make_x(w);
            return;
        }
        out.make_zeros(w);
        let n = words_for(w);
        let (la, ra) = (self.avals(), rhs.avals());
        let (aval, _) = out.planes_mut();
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..(n - i) {
                let p = padded(la, i) as u128 * padded(ra, j) as u128 + aval[i + j] as u128 + carry;
                aval[i + j] = p as u64;
                carry = p >> 64;
            }
        }
        out.normalize();
    }

    /// Multiplication modulo `2^w`; all-`X` on unknowns.
    pub fn mul(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = LogicVec::zeros(1);
        self.mul_into(rhs, &mut out);
        out
    }

    /// Unsigned division written into `out`; all-`X` on unknowns or a zero
    /// divisor. Allocation-free for widths up to 64 bits (the wide path
    /// allocates working buffers internally).
    pub fn div_into(&self, rhs: &LogicVec, out: &mut LogicVec) {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() || rhs.is_zero() {
            out.make_x(w);
        } else if w <= 64 {
            let a = self.to_u64().expect("defined <=64-bit value");
            let b = rhs.to_u64().expect("defined <=64-bit value");
            out.assign_u64(w, a / b);
        } else {
            out.assign_from(&self.div_rem(rhs).0);
        }
    }

    /// Unsigned remainder written into `out`; all-`X` on unknowns or a zero
    /// divisor. Allocation-free for widths up to 64 bits.
    pub fn rem_into(&self, rhs: &LogicVec, out: &mut LogicVec) {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() || rhs.is_zero() {
            out.make_x(w);
        } else if w <= 64 {
            let a = self.to_u64().expect("defined <=64-bit value");
            let b = rhs.to_u64().expect("defined <=64-bit value");
            out.assign_u64(w, a % b);
        } else {
            out.assign_from(&self.div_rem(rhs).1);
        }
    }

    /// Unsigned division; all-`X` on unknowns or a zero divisor.
    pub fn div(&self, rhs: &LogicVec) -> LogicVec {
        self.div_rem(rhs).0
    }

    /// Unsigned remainder; all-`X` on unknowns or a zero divisor.
    pub fn rem(&self, rhs: &LogicVec) -> LogicVec {
        self.div_rem(rhs).1
    }

    /// Unsigned division and remainder together.
    ///
    /// Returns `(all-X, all-X)` if either operand has unknown bits or the
    /// divisor is zero.
    pub fn div_rem(&self, rhs: &LogicVec) -> (LogicVec, LogicVec) {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() || rhs.is_zero() {
            return (LogicVec::new_x(w), LogicVec::new_x(w));
        }
        if w <= 64 {
            let a = self.to_u64().expect("defined <=64-bit value");
            let b = rhs.to_u64().expect("defined <=64-bit value");
            return (LogicVec::from_u64(w, a / b), LogicVec::from_u64(w, a % b));
        }
        // Bit-serial restoring division for wide values.
        let l = self.resize(w);
        let r = rhs.resize(w);
        let n = words_for(w);
        let mut quot = vec![0u64; n];
        let mut remw = vec![0u64; n];
        for i in (0..w).rev() {
            // remw = remw << 1 | dividend[i]
            let mut carry = (l.avals()[(i / 64) as usize] >> (i % 64)) & 1;
            for word in remw.iter_mut() {
                let top = *word >> 63;
                *word = (*word << 1) | carry;
                carry = top;
            }
            if ge_words(&remw, r.avals()) {
                sub_words_in_place(&mut remw, r.avals());
                quot[(i / 64) as usize] |= 1u64 << (i % 64);
            }
        }
        let q = LogicVec::from_fn(w, |aval, _| aval.copy_from_slice(&quot));
        let rm = LogicVec::from_fn(w, |aval, _| aval.copy_from_slice(&remw));
        (q, rm)
    }

    /// In-place logical left shift by a constant amount (zero fill).
    pub fn shl_assign(&mut self, amount: u32) {
        let w = self.width();
        if amount >= w {
            self.make_zeros(w);
            return;
        }
        if amount == 0 {
            return;
        }
        let ws = (amount / 64) as usize;
        let bs = amount % 64;
        let (a, b) = self.planes_mut();
        shift_plane_left(a, ws, bs);
        shift_plane_left(b, ws, bs);
        self.normalize();
    }

    /// In-place logical right shift by a constant amount (zero fill).
    pub fn lshr_assign(&mut self, amount: u32) {
        let w = self.width();
        if amount >= w {
            self.make_zeros(w);
            return;
        }
        if amount == 0 {
            return;
        }
        let ws = (amount / 64) as usize;
        let bs = amount % 64;
        let (a, b) = self.planes_mut();
        shift_plane_right(a, ws, bs);
        shift_plane_right(b, ws, bs);
        self.normalize();
    }

    /// In-place arithmetic right shift by a constant amount (MSB fill; an
    /// `X`/`Z` MSB fills with `X`).
    pub fn ashr_assign(&mut self, amount: u32) {
        let w = self.width();
        let msb = self.bit(w - 1);
        let fill = if msb.is_defined() { msb } else { LogicBit::X };
        if amount >= w {
            self.make_filled(w, fill);
            return;
        }
        self.lshr_assign(amount);
        for i in (w - amount)..w {
            self.set_bit(i, fill);
        }
    }

    /// The shift amount `amount` encodes, saturated to "shift everything
    /// out" (`self.width()`), or `None` for a genuinely unknown amount.
    ///
    /// A fully-defined amount that merely does not fit in 64 bits is still
    /// a valid (huge) shift count — it saturates like any amount `>=
    /// width`, it does not poison the result. Only `X`/`Z` bits in the
    /// amount yield `None` (and an all-`X` result in the callers).
    #[inline]
    fn saturated_shift_amount(&self, amount: &LogicVec) -> Option<u32> {
        if amount.has_unknown() {
            return None;
        }
        Some(match amount.to_u64() {
            Some(n) => n.min(self.width() as u64) as u32,
            // Defined but wider than 64 bits: shifts everything out.
            None => self.width(),
        })
    }

    /// In-place left shift by a vector amount; all-`X` if the amount has
    /// unknowns, zero fill when a defined amount reaches or exceeds the
    /// width (however wide the amount vector is).
    pub fn shl_vec_assign(&mut self, amount: &LogicVec) {
        match self.saturated_shift_amount(amount) {
            Some(n) => self.shl_assign(n),
            None => {
                let w = self.width();
                self.make_x(w);
            }
        }
    }

    /// In-place logical right shift by a vector amount; all-`X` if the
    /// amount has unknowns, zero fill when a defined amount reaches or
    /// exceeds the width.
    pub fn lshr_vec_assign(&mut self, amount: &LogicVec) {
        match self.saturated_shift_amount(amount) {
            Some(n) => self.lshr_assign(n),
            None => {
                let w = self.width();
                self.make_x(w);
            }
        }
    }

    /// In-place arithmetic right shift by a vector amount; all-`X` if the
    /// amount has unknowns, sign (MSB) fill when a defined amount reaches
    /// or exceeds the width.
    pub fn ashr_vec_assign(&mut self, amount: &LogicVec) {
        match self.saturated_shift_amount(amount) {
            Some(n) => self.ashr_assign(n),
            None => {
                let w = self.width();
                self.make_x(w);
            }
        }
    }

    /// Logical left shift by a constant amount (zero fill).
    pub fn shl(&self, amount: u32) -> LogicVec {
        let mut out = self.clone();
        out.shl_assign(amount);
        out
    }

    /// Logical right shift by a constant amount (zero fill).
    pub fn lshr(&self, amount: u32) -> LogicVec {
        let mut out = self.clone();
        out.lshr_assign(amount);
        out
    }

    /// Arithmetic right shift by a constant amount (MSB fill; an `X`/`Z` MSB
    /// fills with `X`).
    pub fn ashr(&self, amount: u32) -> LogicVec {
        let mut out = self.clone();
        out.ashr_assign(amount);
        out
    }

    /// Left shift by a vector amount; all-`X` if the amount has unknowns.
    pub fn shl_vec(&self, amount: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.shl_vec_assign(amount);
        out
    }

    /// Logical right shift by a vector amount; all-`X` if the amount has
    /// unknowns.
    pub fn lshr_vec(&self, amount: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.lshr_vec_assign(amount);
        out
    }

    /// Arithmetic right shift by a vector amount; all-`X` if the amount has
    /// unknowns.
    pub fn ashr_vec(&self, amount: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.ashr_vec_assign(amount);
        out
    }

    /// Four-state equality (`==`): `X` if either operand has unknown bits.
    /// Never allocates: operands are compared on zero-padded words.
    pub fn logic_eq(&self, rhs: &LogicVec) -> LogicBit {
        if self.has_unknown() || rhs.has_unknown() {
            return LogicBit::X;
        }
        let n = words_for(self.width().max(rhs.width()));
        let (la, ra) = (self.avals(), rhs.avals());
        LogicBit::from((0..n).all(|i| padded(la, i) == padded(ra, i)))
    }

    /// Four-state inequality (`!=`).
    pub fn logic_ne(&self, rhs: &LogicVec) -> LogicBit {
        self.logic_eq(rhs).not()
    }

    /// Case equality (`===`): exact four-state identity including `X`/`Z`,
    /// at the zero-extended common width. Never allocates.
    pub fn case_eq(&self, rhs: &LogicVec) -> bool {
        let n = words_for(self.width().max(rhs.width()));
        let (la, lb) = (self.avals(), self.bvals());
        let (ra, rb) = (rhs.avals(), rhs.bvals());
        (0..n).all(|i| padded(la, i) == padded(ra, i) && padded(lb, i) == padded(rb, i))
    }

    /// `casez`-style match: `Z` (or `?`) bits in `pattern` match anything.
    ///
    /// Returns `false` (no match) if a non-wildcard pattern bit disagrees,
    /// comparing four-state identity on the remaining bits. Never
    /// allocates.
    pub fn casez_match(&self, pattern: &LogicVec) -> bool {
        let n = words_for(self.width().max(pattern.width()));
        let (va, vb) = (self.avals(), self.bvals());
        let (pa, pb) = (pattern.avals(), pattern.bvals());
        for i in 0..n {
            let (pav, pbv) = (padded(pa, i), padded(pb, i));
            // Z pattern bits (a=0, b=1) are wildcards.
            let wild = !pav & pbv;
            if (padded(va, i) ^ pav) & !wild != 0 || (padded(vb, i) ^ pbv) & !wild != 0 {
                return false;
            }
        }
        true
    }

    /// Unsigned `<`; `X` if either operand has unknown bits.
    pub fn lt(&self, rhs: &LogicVec) -> LogicBit {
        match self.cmp_unsigned(rhs) {
            Some(ord) => LogicBit::from(ord == std::cmp::Ordering::Less),
            None => LogicBit::X,
        }
    }

    /// Unsigned `<=`; `X` if either operand has unknown bits.
    pub fn le(&self, rhs: &LogicVec) -> LogicBit {
        match self.cmp_unsigned(rhs) {
            Some(ord) => LogicBit::from(ord != std::cmp::Ordering::Greater),
            None => LogicBit::X,
        }
    }

    /// Unsigned `>`; `X` if either operand has unknown bits.
    pub fn gt(&self, rhs: &LogicVec) -> LogicBit {
        rhs.lt(self)
    }

    /// Unsigned `>=`; `X` if either operand has unknown bits.
    pub fn ge(&self, rhs: &LogicVec) -> LogicBit {
        rhs.le(self)
    }

    /// Unsigned comparison, `None` if either side has unknown bits. Never
    /// allocates.
    fn cmp_unsigned(&self, rhs: &LogicVec) -> Option<std::cmp::Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let n = words_for(self.width().max(rhs.width()));
        let (la, ra) = (self.avals(), rhs.avals());
        for i in (0..n).rev() {
            match padded(la, i).cmp(&padded(ra, i)) {
                std::cmp::Ordering::Equal => continue,
                other => return Some(other),
            }
        }
        Some(std::cmp::Ordering::Equal)
    }

    /// Reduction AND over all bits.
    pub fn red_and(&self) -> LogicBit {
        let mut saw_unknown = false;
        for i in 0..self.avals().len() {
            let (a, b) = (self.avals()[i], self.bvals()[i]);
            let mask = if i == self.avals().len() - 1 {
                top_word_mask(self.width())
            } else {
                u64::MAX
            };
            if (!a & !b) & mask != 0 {
                return LogicBit::Zero;
            }
            if b & mask != 0 {
                saw_unknown = true;
            }
        }
        if saw_unknown {
            LogicBit::X
        } else {
            LogicBit::One
        }
    }

    /// Reduction OR over all bits.
    pub fn red_or(&self) -> LogicBit {
        let mut saw_unknown = false;
        for i in 0..self.avals().len() {
            let (a, b) = (self.avals()[i], self.bvals()[i]);
            if a & !b != 0 {
                return LogicBit::One;
            }
            if b != 0 {
                saw_unknown = true;
            }
        }
        if saw_unknown {
            LogicBit::X
        } else {
            LogicBit::Zero
        }
    }

    /// Reduction XOR (parity) over all bits; `X` if any bit is unknown.
    pub fn red_xor(&self) -> LogicBit {
        if self.has_unknown() {
            return LogicBit::X;
        }
        let ones: u32 = self.avals().iter().map(|w| w.count_ones()).sum();
        LogicBit::from(ones % 2 == 1)
    }

    /// The truth value used by `if`, `&&`, `||`, `!` and the ternary
    /// condition: `1` if any bit is a defined `1`, `0` if all bits are
    /// defined `0`, `X` otherwise.
    pub fn truth(&self) -> LogicBit {
        self.red_or()
    }

    /// In-place per-bit merge used when a ternary condition is unknown:
    /// bits where both sides agree (and are defined) keep their value, all
    /// others become `X`. Word-parallel, never allocates (up to the usual
    /// word-count caveat on growth).
    pub fn merge_x_assign(&mut self, rhs: &LogicVec) {
        self.bitwise_assign_with(rhs, |la, lb, ra, rb| {
            // agree = identical four-state bit, keep = agree and defined;
            // everything else becomes X (a=1, b=1).
            let agree = !(la ^ ra) & !(lb ^ rb);
            let keep = agree & !lb;
            ((la & keep) | !keep, !keep)
        })
    }

    /// Per-bit merge used when a ternary condition is unknown: bits where
    /// both sides agree (and are defined) keep their value, all others
    /// become `X`.
    pub fn merge_x(&self, rhs: &LogicVec) -> LogicVec {
        let mut out = self.clone();
        out.merge_x_assign(rhs);
        out
    }
}

/// In-place word-parallel left shift of one plane (`ws` whole words plus
/// `bs < 64` bits). Writes descending indices, so each word is read before
/// it is overwritten.
fn shift_plane_left(p: &mut [u64], ws: usize, bs: u32) {
    let n = p.len();
    for i in (0..n).rev() {
        let lo = if i >= ws { p[i - ws] << bs } else { 0 };
        let hi = if bs > 0 && i > ws {
            p[i - ws - 1] >> (64 - bs)
        } else {
            0
        };
        p[i] = lo | hi;
    }
}

/// In-place word-parallel right shift of one plane. Writes ascending
/// indices, so each word is read before it is overwritten.
fn shift_plane_right(p: &mut [u64], ws: usize, bs: u32) {
    let n = p.len();
    for i in 0..n {
        let lo = if i + ws < n { p[i + ws] >> bs } else { 0 };
        let hi = if bs > 0 && i + ws + 1 < n {
            p[i + ws + 1] << (64 - bs)
        } else {
            0
        };
        p[i] = lo | hi;
    }
}

/// Word-array unsigned `>=`.
fn ge_words(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => continue,
        }
    }
    true
}

/// Word-array in-place subtraction (`a -= b`), assuming `a >= b`.
fn sub_words_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::{LogicBit, LogicVec};

    fn v(w: u32, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn and_or_xor_defined() {
        assert_eq!(v(8, 0xcc).and(&v(8, 0xaa)).to_u64(), Some(0x88));
        assert_eq!(v(8, 0xcc).or(&v(8, 0xaa)).to_u64(), Some(0xee));
        assert_eq!(v(8, 0xcc).xor(&v(8, 0xaa)).to_u64(), Some(0x66));
        assert_eq!(v(8, 0xcc).xnor(&v(8, 0xaa)).to_u64(), Some(0x99));
        assert_eq!(v(8, 0xcc).not().to_u64(), Some(0x33));
    }

    #[test]
    fn and_x_dominance() {
        let mut x = v(4, 0b0101);
        x.set_bit(3, LogicBit::X);
        let r = x.and(&v(4, 0b1011));
        assert_eq!(r.bit(0), LogicBit::One);
        assert_eq!(r.bit(1), LogicBit::Zero);
        assert_eq!(r.bit(2), LogicBit::Zero); // x's bit2=1 & rhs 0 -> 0
        assert_eq!(r.bit(3), LogicBit::X); // X & 1 -> X
    }

    #[test]
    fn or_one_dominates_x() {
        let x = LogicVec::new_x(4);
        let r = x.or(&v(4, 0b0011));
        assert_eq!(r.bit(0), LogicBit::One);
        assert_eq!(r.bit(1), LogicBit::One);
        assert_eq!(r.bit(2), LogicBit::X);
    }

    #[test]
    fn add_sub_basic() {
        assert_eq!(v(8, 250).add(&v(8, 10)).to_u64(), Some(4)); // wraps
        assert_eq!(v(8, 5).sub(&v(8, 10)).to_u64(), Some(251)); // wraps
        assert_eq!(v(16, 5).add(&v(8, 10)).to_u64(), Some(15)); // width ext
    }

    #[test]
    fn add_multiword_carry() {
        let a = v(128, u64::MAX);
        let one = v(128, 1);
        let s = a.add(&one);
        assert_eq!(s.avals()[0], 0);
        assert_eq!(s.avals()[1], 1);
    }

    #[test]
    fn arithmetic_is_pessimistic_about_x() {
        let x = LogicVec::new_x(8);
        assert!(v(8, 1).add(&x).has_unknown());
        assert!(v(8, 1).mul(&x).has_unknown());
        assert_eq!(v(8, 1).add(&x).to_u64(), None);
    }

    #[test]
    fn neg_is_twos_complement() {
        assert_eq!(v(8, 1).neg().to_u64(), Some(0xff));
        assert_eq!(v(8, 0).neg().to_u64(), Some(0));
    }

    #[test]
    fn mul_matches_u128() {
        let a = v(64, 0xdead_beef_1234_5678);
        let b = v(64, 0x1000_0001);
        let expect = (0xdead_beef_1234_5678u128 * 0x1000_0001u128) as u64;
        assert_eq!(a.mul(&b).to_u64(), Some(expect));
    }

    #[test]
    fn wide_mul() {
        let a = v(128, u64::MAX);
        let r = a.mul(&v(128, 2));
        assert_eq!(r.avals()[0], u64::MAX - 1);
        assert_eq!(r.avals()[1], 1);
    }

    #[test]
    fn div_rem_narrow_and_wide() {
        assert_eq!(v(8, 100).div(&v(8, 7)).to_u64(), Some(14));
        assert_eq!(v(8, 100).rem(&v(8, 7)).to_u64(), Some(2));
        let a = v(128, 1_000_000_007);
        assert_eq!(a.div(&v(128, 13)).to_u64(), Some(1_000_000_007 / 13));
        assert_eq!(a.rem(&v(128, 13)).to_u64(), Some(1_000_000_007 % 13));
    }

    #[test]
    fn div_by_zero_is_x() {
        assert!(v(8, 3).div(&v(8, 0)).has_unknown());
        assert!(v(8, 3).rem(&v(8, 0)).has_unknown());
    }

    #[test]
    fn shifts() {
        assert_eq!(v(8, 0b0001_0110).shl(2).to_u64(), Some(0b0101_1000));
        assert_eq!(v(8, 0b0001_0110).lshr(2).to_u64(), Some(0b0000_0101));
        assert_eq!(v(8, 0x96).ashr(4).to_u64(), Some(0xf9));
        assert_eq!(v(8, 0x16).ashr(4).to_u64(), Some(0x01));
        assert_eq!(v(8, 1).shl(8).to_u64(), Some(0));
        assert_eq!(v(8, 0x80).lshr(9).to_u64(), Some(0));
    }

    #[test]
    fn wide_shifts_cross_words() {
        let a = v(128, 1).shl(100);
        assert_eq!(a.avals()[1], 1u64 << 36);
        assert_eq!(a.lshr(100).to_u64(), Some(1));
        let b = v(192, 0xffff).shl(64);
        assert_eq!(b.avals()[0], 0);
        assert_eq!(b.avals()[1], 0xffff);
    }

    #[test]
    fn shift_by_unknown_amount_is_x() {
        let amt = LogicVec::new_x(3);
        assert!(v(8, 1).shl_vec(&amt).has_unknown());
        assert!(v(8, 1).lshr_vec(&amt).has_unknown());
    }

    #[test]
    fn equality_operators() {
        assert_eq!(v(8, 5).logic_eq(&v(8, 5)), LogicBit::One);
        assert_eq!(v(8, 5).logic_eq(&v(8, 6)), LogicBit::Zero);
        assert_eq!(v(8, 5).logic_ne(&v(8, 6)), LogicBit::One);
        let x = LogicVec::new_x(8);
        assert_eq!(v(8, 5).logic_eq(&x), LogicBit::X);
        assert!(x.case_eq(&LogicVec::new_x(8)));
        assert!(!x.case_eq(&v(8, 5)));
    }

    #[test]
    fn casez_wildcards() {
        let pat = LogicVec::parse_literal("4'b1?0?").unwrap();
        assert!(v(4, 0b1000).casez_match(&pat));
        assert!(v(4, 0b1101).casez_match(&pat));
        assert!(!v(4, 0b0101).casez_match(&pat));
        assert!(!v(4, 0b1110).casez_match(&pat));
    }

    #[test]
    fn unsigned_compares() {
        assert_eq!(v(8, 3).lt(&v(8, 5)), LogicBit::One);
        assert_eq!(v(8, 5).lt(&v(8, 3)), LogicBit::Zero);
        assert_eq!(v(8, 5).le(&v(8, 5)), LogicBit::One);
        assert_eq!(v(8, 5).ge(&v(8, 6)), LogicBit::Zero);
        assert_eq!(v(8, 7).gt(&v(8, 6)), LogicBit::One);
        assert_eq!(v(8, 3).lt(&LogicVec::new_x(8)), LogicBit::X);
    }

    #[test]
    fn wide_compare() {
        let big = v(128, 1).shl(100);
        assert_eq!(v(128, u64::MAX).lt(&big), LogicBit::One);
        assert_eq!(big.gt(&v(128, u64::MAX)), LogicBit::One);
    }

    #[test]
    fn reductions() {
        assert_eq!(v(4, 0xf).red_and(), LogicBit::One);
        assert_eq!(v(4, 0x7).red_and(), LogicBit::Zero);
        assert_eq!(v(4, 0x0).red_or(), LogicBit::Zero);
        assert_eq!(v(4, 0x2).red_or(), LogicBit::One);
        assert_eq!(v(4, 0x3).red_xor(), LogicBit::Zero);
        assert_eq!(v(4, 0x7).red_xor(), LogicBit::One);
        let mut partial = v(4, 0x7);
        partial.set_bit(3, LogicBit::X);
        assert_eq!(partial.red_and(), LogicBit::X);
        assert_eq!(partial.red_or(), LogicBit::One); // has a defined 1
        assert_eq!(partial.red_xor(), LogicBit::X);
        let mut zx = v(4, 0);
        zx.set_bit(1, LogicBit::X);
        assert_eq!(zx.red_or(), LogicBit::X);
        assert_eq!(zx.red_and(), LogicBit::Zero);
    }

    #[test]
    fn truthiness() {
        assert_eq!(v(8, 0).truth(), LogicBit::Zero);
        assert_eq!(v(8, 4).truth(), LogicBit::One);
        let mut m = v(8, 0);
        m.set_bit(7, LogicBit::X);
        assert_eq!(m.truth(), LogicBit::X);
        m.set_bit(0, LogicBit::One);
        assert_eq!(m.truth(), LogicBit::One);
    }

    #[test]
    fn merge_x_agreeing_bits_survive() {
        let a = v(4, 0b1010);
        let b = v(4, 0b1001);
        let m = a.merge_x(&b);
        assert_eq!(m.bit(3), LogicBit::One);
        assert_eq!(m.bit(2), LogicBit::Zero);
        assert_eq!(m.bit(1), LogicBit::X);
        assert_eq!(m.bit(0), LogicBit::X);
    }
}
