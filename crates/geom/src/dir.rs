//! Routing directions.

use std::fmt;
use std::ops::Not;

/// The direction a routing track or wire segment runs.
///
/// The router uses a strict HV discipline: every layer has a preferred
/// direction, and a path alternates between horizontal and vertical track
/// segments (the paper's "sequence of alternating horizontal and vertical
/// track segments").
///
/// ```
/// use ocr_geom::Dir;
/// assert_eq!(!Dir::Horizontal, Dir::Vertical);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Running left–right; a horizontal track is named by its `y` offset.
    Horizontal,
    /// Running bottom–top; a vertical track is named by its `x` offset.
    Vertical,
}

impl Dir {
    /// Both directions, horizontal first.
    pub const BOTH: [Dir; 2] = [Dir::Horizontal, Dir::Vertical];

    /// Returns the perpendicular direction.
    #[inline]
    pub fn perp(self) -> Dir {
        match self {
            Dir::Horizontal => Dir::Vertical,
            Dir::Vertical => Dir::Horizontal,
        }
    }

    /// Stable index (`0` horizontal, `1` vertical) for array-indexed
    /// per-direction storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dir::Horizontal => 0,
            Dir::Vertical => 1,
        }
    }
}

impl Not for Dir {
    type Output = Dir;
    #[inline]
    fn not(self) -> Dir {
        self.perp()
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Horizontal => write!(f, "horizontal"),
            Dir::Vertical => write!(f, "vertical"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perp_is_involution() {
        for d in Dir::BOTH {
            assert_eq!(d.perp().perp(), d);
            assert_eq!(!!d, d);
        }
    }

    #[test]
    fn indexes_are_distinct() {
        assert_ne!(Dir::Horizontal.index(), Dir::Vertical.index());
    }
}
