//! Core SAT types: variables, literals, and three-valued assignments.

use std::fmt;
use std::ops::Not;

/// A Boolean variable, numbered densely from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Index for array access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `var << 1 | sign`
/// (`sign == 1` means negated), MiniSat style.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Construct from a variable and a sign (`true` = positive).
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        Lit(v.0 << 1 | (!positive as u32))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index over all literals (for watch lists).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from a dense index.
    #[inline]
    pub fn from_idx(i: usize) -> Lit {
        Lit(i as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", if self.is_pos() { "" } else { "¬" }, self.var().0)
    }
}

/// A three-valued assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Unassigned.
    #[default]
    Undef,
    /// Assigned true.
    True,
    /// Assigned false.
    False,
}

impl LBool {
    /// Construct from a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Negate (keeping `Undef`).
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::False,
            LBool::False => LBool::True,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(Lit::from_idx(p.idx()), p);
        assert_eq!(Lit::new(v, true), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::from_bool(false), LBool::False);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::default(), LBool::Undef);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Lit::pos(Var(3))), "x3");
        assert_eq!(format!("{:?}", Lit::neg(Var(3))), "¬x3");
    }
}
