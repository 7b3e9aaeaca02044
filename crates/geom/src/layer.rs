//! Metal routing layers.

use crate::Dir;
use std::fmt;

/// One of the four metal layers assumed by the paper.
///
/// The methodology dedicates [`Layer::Metal1`]/[`Layer::Metal2`] to
/// intra-cell wiring and Level A channel routing, and
/// [`Layer::Metal3`]/[`Layer::Metal4`] to Level B over-cell routing.
///
/// Each layer has a fixed preferred direction following the usual HV
/// alternation: M1/M3 horizontal, M2/M4 vertical.
///
/// ```
/// use ocr_geom::{Dir, Layer, LayerSet};
/// assert_eq!(Layer::Metal3.preferred_dir(), Dir::Horizontal);
/// assert!(LayerSet::level_b().contains(Layer::Metal4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// First metal: horizontal, cell-internal + Level A.
    Metal1,
    /// Second metal: vertical, cell-internal + Level A.
    Metal2,
    /// Third metal: horizontal, Level B over-cell routing.
    Metal3,
    /// Fourth metal: vertical, Level B over-cell routing.
    Metal4,
}

impl Layer {
    /// All four layers, bottom-up.
    pub const ALL: [Layer; 4] = [Layer::Metal1, Layer::Metal2, Layer::Metal3, Layer::Metal4];

    /// The Level A (channel) layer pair: M1 horizontal, M2 vertical.
    pub const LEVEL_A: [Layer; 2] = [Layer::Metal1, Layer::Metal2];

    /// The Level B (over-cell) layer pair: M3 horizontal, M4 vertical.
    pub const LEVEL_B: [Layer; 2] = [Layer::Metal3, Layer::Metal4];

    /// Zero-based index (`Metal1` is 0).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Layer::Metal1 => 0,
            Layer::Metal2 => 1,
            Layer::Metal3 => 2,
            Layer::Metal4 => 3,
        }
    }

    /// Layer from zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 4`.
    #[inline]
    pub fn from_index(idx: usize) -> Layer {
        Layer::ALL[idx]
    }

    /// Metal number (1–4).
    #[inline]
    pub fn number(self) -> u8 {
        self.index() as u8 + 1
    }

    /// Preferred routing direction (M1/M3 horizontal, M2/M4 vertical).
    #[inline]
    pub fn preferred_dir(self) -> Dir {
        if self.index().is_multiple_of(2) {
            Dir::Horizontal
        } else {
            Dir::Vertical
        }
    }

    /// The layer directly above, if any.
    #[inline]
    pub fn above(self) -> Option<Layer> {
        match self {
            Layer::Metal1 => Some(Layer::Metal2),
            Layer::Metal2 => Some(Layer::Metal3),
            Layer::Metal3 => Some(Layer::Metal4),
            Layer::Metal4 => None,
        }
    }

    /// The layer directly below, if any.
    #[inline]
    pub fn below(self) -> Option<Layer> {
        match self {
            Layer::Metal1 => None,
            Layer::Metal2 => Some(Layer::Metal1),
            Layer::Metal3 => Some(Layer::Metal2),
            Layer::Metal4 => Some(Layer::Metal3),
        }
    }

    /// Number of via cuts needed to connect this layer to `other`
    /// (adjacent layers need one cut; identical layers none).
    ///
    /// The paper's net-terminal rule — "only final connections to net
    /// terminals are allowed to pass through intervening routing layers" —
    /// makes these stacked vias at terminals the only inter-level vias.
    #[inline]
    pub fn via_cuts_to(self, other: Layer) -> usize {
        (self.index() as isize - other.index() as isize).unsigned_abs()
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metal{}", self.number())
    }
}

/// A small set of layers, used to mark which layers an obstacle blocks.
///
/// ```
/// use ocr_geom::{Layer, LayerSet};
/// let mut s = LayerSet::empty();
/// s.insert(Layer::Metal3);
/// assert!(s.contains(Layer::Metal3));
/// assert!(!s.contains(Layer::Metal4));
/// assert_eq!(LayerSet::level_b(), LayerSet::of(&[Layer::Metal3, Layer::Metal4]));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LayerSet(u8);

impl LayerSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        LayerSet(0)
    }

    /// All four layers.
    #[inline]
    pub const fn all() -> Self {
        LayerSet(0b1111)
    }

    /// The Level B pair (M3 | M4) — the layers over-cell obstacles block.
    #[inline]
    pub const fn level_b() -> Self {
        LayerSet(0b1100)
    }

    /// The Level A pair (M1 | M2).
    #[inline]
    pub const fn level_a() -> Self {
        LayerSet(0b0011)
    }

    /// Builds a set from a slice of layers.
    pub fn of(layers: &[Layer]) -> Self {
        let mut s = LayerSet::empty();
        for &l in layers {
            s.insert(l);
        }
        s
    }

    /// Singleton set.
    #[inline]
    pub fn single(layer: Layer) -> Self {
        LayerSet(1 << layer.index())
    }

    /// Adds a layer to the set.
    #[inline]
    pub fn insert(&mut self, layer: Layer) {
        self.0 |= 1 << layer.index();
    }

    /// Removes a layer from the set.
    #[inline]
    pub fn remove(&mut self, layer: Layer) {
        self.0 &= !(1 << layer.index());
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, layer: Layer) -> bool {
        self.0 & (1 << layer.index()) != 0
    }

    /// `true` if no layer is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: LayerSet) -> LayerSet {
        LayerSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: LayerSet) -> LayerSet {
        LayerSet(self.0 & other.0)
    }

    /// Iterates the layers in the set, bottom-up.
    pub fn iter(&self) -> impl Iterator<Item = Layer> + '_ {
        Layer::ALL.into_iter().filter(move |l| self.contains(*l))
    }
}

impl fmt::Display for LayerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for l in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Layer> for LayerSet {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        let mut s = LayerSet::empty();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preferred_dirs_alternate() {
        assert_eq!(Layer::Metal1.preferred_dir(), Dir::Horizontal);
        assert_eq!(Layer::Metal2.preferred_dir(), Dir::Vertical);
        assert_eq!(Layer::Metal3.preferred_dir(), Dir::Horizontal);
        assert_eq!(Layer::Metal4.preferred_dir(), Dir::Vertical);
    }

    #[test]
    fn above_below_are_inverse() {
        for l in Layer::ALL {
            if let Some(a) = l.above() {
                assert_eq!(a.below(), Some(l));
            }
            if let Some(b) = l.below() {
                assert_eq!(b.above(), Some(l));
            }
        }
    }

    #[test]
    fn via_cut_counts() {
        assert_eq!(Layer::Metal1.via_cuts_to(Layer::Metal1), 0);
        assert_eq!(Layer::Metal1.via_cuts_to(Layer::Metal2), 1);
        assert_eq!(Layer::Metal1.via_cuts_to(Layer::Metal4), 3);
        assert_eq!(Layer::Metal4.via_cuts_to(Layer::Metal1), 3);
    }

    #[test]
    fn layer_set_roundtrip() {
        let mut s = LayerSet::empty();
        assert!(s.is_empty());
        s.insert(Layer::Metal2);
        s.insert(Layer::Metal4);
        assert!(s.contains(Layer::Metal2) && s.contains(Layer::Metal4));
        assert!(!s.contains(Layer::Metal1));
        s.remove(Layer::Metal2);
        assert!(!s.contains(Layer::Metal2));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![Layer::Metal4]);
    }

    #[test]
    fn level_sets_partition_all() {
        assert_eq!(
            LayerSet::level_a().union(LayerSet::level_b()),
            LayerSet::all()
        );
        assert!(LayerSet::level_a()
            .intersection(LayerSet::level_b())
            .is_empty());
    }
}
