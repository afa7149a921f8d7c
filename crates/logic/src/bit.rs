//! A single four-state logic bit.

use std::fmt;

/// A single four-state logic value: `0`, `1`, `Z` or `X`.
///
/// `Z` is high impedance (an undriven net); `X` is unknown. When a `Z` bit
/// is *read* by a logic operator it behaves as `X`, matching IEEE 1364
/// operator semantics.
///
/// # Example
///
/// ```
/// use eraser_logic::LogicBit;
///
/// assert_eq!(LogicBit::One.and(LogicBit::X), LogicBit::X);
/// assert_eq!(LogicBit::Zero.and(LogicBit::X), LogicBit::Zero);
/// assert_eq!(LogicBit::One.or(LogicBit::X), LogicBit::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LogicBit {
    /// Logic zero.
    #[default]
    Zero,
    /// Logic one.
    One,
    /// High impedance.
    Z,
    /// Unknown.
    X,
}

impl LogicBit {
    /// The `(aval, bval)` plane encoding of this bit.
    #[inline]
    pub fn planes(self) -> (bool, bool) {
        match self {
            LogicBit::Zero => (false, false),
            LogicBit::One => (true, false),
            LogicBit::Z => (false, true),
            LogicBit::X => (true, true),
        }
    }

    /// Reconstructs a bit from its `(aval, bval)` plane encoding.
    #[inline]
    pub fn from_planes(aval: bool, bval: bool) -> Self {
        match (aval, bval) {
            (false, false) => LogicBit::Zero,
            (true, false) => LogicBit::One,
            (false, true) => LogicBit::Z,
            (true, true) => LogicBit::X,
        }
    }

    /// True if the bit is `0` or `1`.
    #[inline]
    pub fn is_defined(self) -> bool {
        matches!(self, LogicBit::Zero | LogicBit::One)
    }

    /// Converts to `bool` if defined.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LogicBit::Zero => Some(false),
            LogicBit::One => Some(true),
            _ => None,
        }
    }

    /// Logical negation: `!0 = 1`, `!1 = 0`, unknown otherwise.
    ///
    /// Also available through [`std::ops::Not`] (`!bit`).
    #[allow(clippy::should_implement_trait)] // `Not` is implemented below; the inherent name stays for call-chaining.
    #[inline]
    pub fn not(self) -> Self {
        match self {
            LogicBit::Zero => LogicBit::One,
            LogicBit::One => LogicBit::Zero,
            _ => LogicBit::X,
        }
    }

    /// Four-state AND: `0` dominates, otherwise unknown dominates.
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        match (self, rhs) {
            (LogicBit::Zero, _) | (_, LogicBit::Zero) => LogicBit::Zero,
            (LogicBit::One, LogicBit::One) => LogicBit::One,
            _ => LogicBit::X,
        }
    }

    /// Four-state OR: `1` dominates, otherwise unknown dominates.
    #[inline]
    pub fn or(self, rhs: Self) -> Self {
        match (self, rhs) {
            (LogicBit::One, _) | (_, LogicBit::One) => LogicBit::One,
            (LogicBit::Zero, LogicBit::Zero) => LogicBit::Zero,
            _ => LogicBit::X,
        }
    }

    /// Four-state XOR: unknown if either side is unknown.
    #[inline]
    pub fn xor(self, rhs: Self) -> Self {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => {
                if a ^ b {
                    LogicBit::One
                } else {
                    LogicBit::Zero
                }
            }
            _ => LogicBit::X,
        }
    }

    /// The character used in Verilog-style literals: `0`, `1`, `z`, `x`.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            LogicBit::Zero => '0',
            LogicBit::One => '1',
            LogicBit::Z => 'z',
            LogicBit::X => 'x',
        }
    }

    /// Parses a literal digit character (`0`, `1`, `x`/`X`, `z`/`Z`/`?`).
    #[inline]
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(LogicBit::Zero),
            '1' => Some(LogicBit::One),
            'x' | 'X' => Some(LogicBit::X),
            'z' | 'Z' | '?' => Some(LogicBit::Z),
            _ => None,
        }
    }
}

impl From<bool> for LogicBit {
    #[inline]
    fn from(b: bool) -> Self {
        if b {
            LogicBit::One
        } else {
            LogicBit::Zero
        }
    }
}

impl std::ops::Not for LogicBit {
    type Output = LogicBit;

    fn not(self) -> LogicBit {
        LogicBit::not(self)
    }
}

impl fmt::Display for LogicBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_roundtrip() {
        for b in [LogicBit::Zero, LogicBit::One, LogicBit::Z, LogicBit::X] {
            let (a, bv) = b.planes();
            assert_eq!(LogicBit::from_planes(a, bv), b);
        }
    }

    #[test]
    fn and_truth_table() {
        use LogicBit::*;
        assert_eq!(Zero.and(Zero), Zero);
        assert_eq!(Zero.and(One), Zero);
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(Zero.and(Z), Zero);
        assert_eq!(One.and(One), One);
        assert_eq!(One.and(X), X);
        assert_eq!(One.and(Z), X);
        assert_eq!(X.and(X), X);
        assert_eq!(Z.and(Z), X);
    }

    #[test]
    fn or_truth_table() {
        use LogicBit::*;
        assert_eq!(Zero.or(Zero), Zero);
        assert_eq!(One.or(Zero), One);
        assert_eq!(One.or(X), One);
        assert_eq!(One.or(Z), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(Zero.or(Z), X);
        assert_eq!(X.or(Z), X);
    }

    #[test]
    fn xor_truth_table() {
        use LogicBit::*;
        assert_eq!(Zero.xor(One), One);
        assert_eq!(One.xor(One), Zero);
        assert_eq!(One.xor(X), X);
        assert_eq!(Z.xor(Zero), X);
    }

    #[test]
    fn not_table() {
        use LogicBit::*;
        assert_eq!(Zero.not(), One);
        assert_eq!(One.not(), Zero);
        assert_eq!(X.not(), X);
        assert_eq!(Z.not(), X);
    }

    #[test]
    fn char_roundtrip() {
        for b in [LogicBit::Zero, LogicBit::One, LogicBit::Z, LogicBit::X] {
            assert_eq!(LogicBit::from_char(b.to_char()), Some(b));
        }
        assert_eq!(LogicBit::from_char('?'), Some(LogicBit::Z));
        assert_eq!(LogicBit::from_char('q'), None);
    }
}
