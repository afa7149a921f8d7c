//! Bit-sliced lane planes for 64-wide fault batching (PPSFP).
//!
//! A [`LanePlanes`] holds one value per *lane* for up to [`LANES`] parallel
//! fault machines, stored transposed: word `j` of the `a`/`b` plane holds
//! bit `j` of **every** lane's value, with lane `i` in bit position `i` of
//! the word. Because every four-state word formula in this workspace is
//! bitwise across bit positions, the same formulas applied word-by-word
//! over a `LanePlanes` compute all 64 lanes at once — the PPSFP trick
//! lifted from the gate level to the ≤ 64-bit RTL plane.
//!
//! The encoding per (lane, bit) is the same VPI-style `(aval, bval)` pair
//! as [`LogicVec`]: `00 = 0`, `10 = 1`, `01 = Z`, `11 = X`. There is no
//! width normalization *across lanes* — all lanes share the plane's width —
//! and [`LanePlanes::word`] reads `(0, 0)` beyond the width, mirroring the
//! [`LogicVec`] invariant that bits at positions `>= width` are `(0, 0)`
//! (so zero-extension of narrower operands is free).

use crate::vec::LogicVec;

/// Number of parallel lanes in a [`LanePlanes`] (one 64-bit word).
pub const LANES: u32 = 64;

/// In-place 64×64 bit-matrix transpose: afterwards bit `i` of `m[j]` is
/// bit `j` of the old `m[i]`. O(64·log 64) word operations via masked
/// block swaps (Hacker's Delight §7-3), and its own inverse — this is
/// what makes whole-plane lane loads and stores word-level instead of
/// bit-level.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut mask = 0xFFFF_FFFF_0000_0000u64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            for r in k..k + j as usize {
                let rj = r + j as usize;
                let t = (m[r] ^ (m[rj] << j)) & mask;
                m[r] ^= t;
                m[rj] ^= t >> j;
            }
            k += 2 * j as usize;
        }
        j >>= 1;
        if j != 0 {
            mask ^= mask >> j;
        }
    }
}

/// A transposed plane of up to [`LANES`] same-width values (width ≤ 64).
///
/// Buffers keep their capacity across [`LanePlanes::reset`] /
/// [`LanePlanes::broadcast`] calls, so a pooled instance is allocation-free
/// in steady state.
#[derive(Debug, Clone, Default)]
pub struct LanePlanes {
    width: u32,
    /// `a[j]` bit `i` = aval of bit `j` of lane `i`'s value.
    a: Vec<u64>,
    /// `b[j]` bit `i` = bval of bit `j` of lane `i`'s value.
    b: Vec<u64>,
}

impl LanePlanes {
    /// Creates an empty plane (width 0; call [`LanePlanes::reset`] or
    /// [`LanePlanes::broadcast`] before use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `width` bit positions with every lane all-zero,
    /// preserving buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn reset(&mut self, width: u32) {
        assert!(
            (1..=64).contains(&width),
            "LanePlanes width must be in 1..=64, got {width}"
        );
        self.width = width;
        self.a.clear();
        self.a.resize(width as usize, 0);
        self.b.clear();
        self.b.resize(width as usize, 0);
    }

    /// The shared lane value width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane words for bit position `j`; `(0, 0)` beyond the width (every
    /// lane reads `0` there — free zero-extension).
    #[inline]
    pub fn word(&self, j: u32) -> (u64, u64) {
        if j < self.width {
            (self.a[j as usize], self.b[j as usize])
        } else {
            (0, 0)
        }
    }

    /// Overwrites the plane words for bit position `j` (must be in range).
    #[inline]
    pub fn set_word(&mut self, j: u32, a: u64, b: u64) {
        debug_assert!(j < self.width);
        self.a[j as usize] = a;
        self.b[j as usize] = b;
    }

    /// Reshapes to `v.width()` and fills **every** lane with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is wider than 64 bits.
    pub fn broadcast(&mut self, v: &LogicVec) {
        self.reset(v.width());
        let (va, vb) = v.word_planes();
        for j in 0..self.width {
            self.a[j as usize] = if va >> j & 1 == 1 { u64::MAX } else { 0 };
            self.b[j as usize] = if vb >> j & 1 == 1 { u64::MAX } else { 0 };
        }
    }

    /// Overwrites lane `lane` with `v` (same width as the plane).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `v.width() != self.width()`.
    pub fn set_lane(&mut self, lane: u32, v: &LogicVec) {
        assert!(lane < LANES, "lane {lane} out of range");
        assert_eq!(v.width(), self.width, "lane width mismatch");
        let (va, vb) = v.word_planes();
        let mask = 1u64 << lane;
        for j in 0..self.width {
            let ji = j as usize;
            self.a[ji] = (self.a[ji] & !mask) | ((va >> j & 1) << lane);
            self.b[ji] = (self.b[ji] & !mask) | ((vb >> j & 1) << lane);
        }
    }

    /// Reshapes to `width` and fills **all** 64 lanes at once from
    /// per-lane value words: `(a[i], b[i])` is lane `i`'s value as
    /// [`LogicVec::word_planes`] pairs. Equivalent to 64
    /// [`LanePlanes::set_lane`] calls but O(64·log 64) word operations
    /// total instead of O(width) bit operations per lane — the batch
    /// path's hot transpose. The input arrays are clobbered (transposed
    /// in place).
    ///
    /// Bits at positions `>= width` of each lane word must be zero (the
    /// [`LogicVec`] invariant for values of width `width`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn load_lanes(&mut self, width: u32, a: &mut [u64; 64], b: &mut [u64; 64]) {
        self.reset(width);
        // All-zero lane words transpose to all-zero plane words, which
        // `reset` already wrote — common for the `b` plane (two-state
        // data) and for all-zero values, so the check pays for itself.
        if a.iter().any(|&w| w != 0) {
            transpose64(a);
            self.a.copy_from_slice(&a[..width as usize]);
        }
        if b.iter().any(|&w| w != 0) {
            transpose64(b);
            self.b.copy_from_slice(&b[..width as usize]);
        }
    }

    /// Gathers **all** 64 lanes at once into per-lane value words — the
    /// inverse of [`LanePlanes::load_lanes`]: afterwards `(a[i], b[i])`
    /// is lane `i`'s value with bits `>= width` zero, ready for
    /// [`LogicVec::assign_word`]. O(64·log 64) word operations instead
    /// of O(width) bit operations per [`LanePlanes::extract_lane`] call.
    pub fn store_lanes(&self, a: &mut [u64; 64], b: &mut [u64; 64]) {
        let w = self.width as usize;
        if self.a.iter().any(|&p| p != 0) {
            a[..w].copy_from_slice(&self.a);
            a[w..].fill(0);
            transpose64(a);
        } else {
            a.fill(0);
        }
        if self.b.iter().any(|&p| p != 0) {
            b[..w].copy_from_slice(&self.b);
            b[w..].fill(0);
            transpose64(b);
        } else {
            b.fill(0);
        }
    }

    /// Gathers lane `lane`'s value into `out` (reshaped to the plane
    /// width).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn extract_lane(&self, lane: u32, out: &mut LogicVec) {
        assert!(lane < LANES, "lane {lane} out of range");
        let mut va = 0u64;
        let mut vb = 0u64;
        for j in 0..self.width {
            va |= (self.a[j as usize] >> lane & 1) << j;
            vb |= (self.b[j as usize] >> lane & 1) << j;
        }
        out.assign_word(self.width, va, vb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicBit;

    /// Deterministic four-state value generator (no external RNG in the
    /// workspace): bit k of value i cycles through 0/1/X/Z.
    fn val(width: u32, seed: u64) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for k in 0..width {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = match s >> 62 {
                0 => LogicBit::Zero,
                1 => LogicBit::One,
                2 => LogicBit::X,
                _ => LogicBit::Z,
            };
            v.set_bit(k, bit);
        }
        v
    }

    #[test]
    fn broadcast_then_extract_roundtrips() {
        for width in [1, 7, 33, 64] {
            let v = val(width, width as u64);
            let mut p = LanePlanes::new();
            p.broadcast(&v);
            let mut out = LogicVec::default();
            for lane in [0, 1, 31, 63] {
                p.extract_lane(lane, &mut out);
                assert_eq!(out, v, "width {width} lane {lane}");
            }
        }
    }

    #[test]
    fn set_lane_roundtrips_four_state_values() {
        let width = 17;
        let good = val(width, 99);
        let mut p = LanePlanes::new();
        p.broadcast(&good);
        let lanes: Vec<LogicVec> = (0..64).map(|i| val(width, i)).collect();
        for (i, v) in lanes.iter().enumerate() {
            p.set_lane(i as u32, v);
        }
        let mut out = LogicVec::default();
        for (i, v) in lanes.iter().enumerate() {
            p.extract_lane(i as u32, &mut out);
            assert_eq!(&out, v, "lane {i}");
        }
    }

    #[test]
    fn load_lanes_matches_per_lane_set_lane() {
        for width in [1, 8, 17, 33, 64] {
            let lanes: Vec<LogicVec> = (0..64).map(|i| val(width, i + 7)).collect();
            let mut reference = LanePlanes::new();
            reference.reset(width);
            for (i, v) in lanes.iter().enumerate() {
                reference.set_lane(i as u32, v);
            }
            let mut a = [0u64; 64];
            let mut b = [0u64; 64];
            for (i, v) in lanes.iter().enumerate() {
                (a[i], b[i]) = v.word_planes();
            }
            let mut fast = LanePlanes::new();
            fast.load_lanes(width, &mut a, &mut b);
            for j in 0..width {
                assert_eq!(fast.word(j), reference.word(j), "width {width} bit {j}");
            }
        }
    }

    #[test]
    fn store_lanes_matches_per_lane_extract_lane() {
        for width in [1, 8, 17, 33, 64] {
            let mut p = LanePlanes::new();
            p.broadcast(&val(width, 5));
            for i in (0..64).step_by(3) {
                p.set_lane(i, &val(width, 1000 + i as u64));
            }
            let mut a = [u64::MAX; 64];
            let mut b = [u64::MAX; 64];
            p.store_lanes(&mut a, &mut b);
            let mut out = LogicVec::default();
            for lane in 0..64 {
                p.extract_lane(lane, &mut out);
                let mut fast = LogicVec::default();
                fast.assign_word(width, a[lane as usize], b[lane as usize]);
                assert_eq!(fast, out, "width {width} lane {lane}");
            }
        }
    }

    #[test]
    fn lanes_differing_flags_exactly_the_patched_lanes() {
        let good = val(9, 3);
        let mut other = good.clone();
        other.set_bit(4, LogicBit::X);
        assert_ne!(other, good);
        let mut p = LanePlanes::new();
        p.broadcast(&good);
        p.set_lane(5, &other);
        p.set_lane(63, &other);
        // A lane re-set to the good value must not be flagged.
        p.set_lane(8, &good.clone());
        let (mut a, mut b) = ([0u64; 64], [0u64; 64]);
        p.store_lanes(&mut a, &mut b);
        let planes = good.word_planes();
        let differing = (0..64).filter(|&l| (a[l], b[l]) != planes);
        assert_eq!(
            differing.fold(0u64, |m, l| m | 1 << l),
            (1 << 5) | (1 << 63)
        );
    }

    #[test]
    fn word_reads_zero_beyond_width() {
        let mut p = LanePlanes::new();
        p.broadcast(&LogicVec::ones(3));
        assert_eq!(p.word(2), (u64::MAX, 0));
        assert_eq!(p.word(3), (0, 0));
        assert_eq!(p.word(63), (0, 0));
    }

    #[test]
    fn reset_preserves_capacity_and_zeroes() {
        let mut p = LanePlanes::new();
        p.broadcast(&val(64, 1));
        p.reset(5);
        assert_eq!(p.width(), 5);
        for j in 0..5 {
            assert_eq!(p.word(j), (0, 0));
        }
    }
}
