//! Axis-aligned rectangles.

use crate::{Coord, Dir, Interval, Point};
use std::fmt;

/// A closed axis-aligned rectangle `[x0, x1] × [y0, y1]`.
///
/// Rectangles model cell outlines, routing obstacles, channel regions,
/// search windows and the die boundary.
///
/// ```
/// use ocr_geom::{Point, Rect};
/// let r = Rect::new(0, 0, 10, 5);
/// assert_eq!(r.width(), 10);
/// assert_eq!(r.height(), 5);
/// assert!(r.contains(Point::new(10, 5))); // boundary is inside
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rect {
    x0: Coord,
    y0: Coord,
    x1: Coord,
    y1: Coord,
}

impl Rect {
    /// Creates the rectangle spanning the two corner points, normalizing
    /// coordinate order.
    #[inline]
    pub fn new(xa: Coord, ya: Coord, xb: Coord, yb: Coord) -> Self {
        Rect {
            x0: xa.min(xb),
            y0: ya.min(yb),
            x1: xa.max(xb),
            y1: ya.max(yb),
        }
    }

    /// Creates a rectangle from two corner [`Point`]s.
    #[inline]
    pub fn from_points(a: Point, b: Point) -> Self {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Creates a rectangle from its lower-left corner and a size.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    #[inline]
    pub fn with_size(x0: Coord, y0: Coord, w: Coord, h: Coord) -> Self {
        assert!(w >= 0 && h >= 0, "negative rectangle size {w}×{h}");
        Rect {
            x0,
            y0,
            x1: x0 + w,
            y1: y0 + h,
        }
    }

    /// Creates a degenerate zero-area rectangle at a point.
    #[inline]
    pub fn at_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Left edge.
    #[inline]
    pub fn x0(&self) -> Coord {
        self.x0
    }
    /// Bottom edge.
    #[inline]
    pub fn y0(&self) -> Coord {
        self.y0
    }
    /// Right edge.
    #[inline]
    pub fn x1(&self) -> Coord {
        self.x1
    }
    /// Top edge.
    #[inline]
    pub fn y1(&self) -> Coord {
        self.y1
    }

    /// Width (`x1 - x0`, never negative).
    #[inline]
    pub fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Height (`y1 - y0`, never negative).
    #[inline]
    pub fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// Area in square database units.
    #[inline]
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Half-perimeter (`width + height`), the classic net-span estimate
    /// used for longest-distance-first net ordering.
    #[inline]
    pub fn half_perimeter(&self) -> Coord {
        self.width() + self.height()
    }

    /// Center point (rounded down).
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// The projection of the rectangle onto the axis *along* `dir`.
    #[inline]
    pub fn span(&self, dir: Dir) -> Interval {
        match dir {
            Dir::Horizontal => Interval::new(self.x0, self.x1),
            Dir::Vertical => Interval::new(self.y0, self.y1),
        }
    }

    /// `true` if the point lies within the closed rectangle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// `true` if `other` lies entirely within `self` (boundaries allowed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && other.x1 <= self.x1 && self.y0 <= other.y0 && other.y1 <= self.y1
    }

    /// `true` if the closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Intersection rectangle, or `None` if disjoint.
    #[inline]
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// Smallest rectangle containing both inputs.
    #[inline]
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Grows the rectangle outward by `amount` on every side (shrinks if
    /// negative).
    ///
    /// # Panics
    ///
    /// Panics if a negative `amount` would invert the rectangle.
    #[inline]
    pub fn expand(&self, amount: Coord) -> Rect {
        let r = Rect {
            x0: self.x0 - amount,
            y0: self.y0 - amount,
            x1: self.x1 + amount,
            y1: self.y1 + amount,
        };
        assert!(
            r.x0 <= r.x1 && r.y0 <= r.y1,
            "expand({amount}) inverted rectangle {self}"
        );
        r
    }

    /// Extends the rectangle minimally so it contains `p`.
    #[inline]
    pub fn expand_to(&self, p: Point) -> Rect {
        Rect {
            x0: self.x0.min(p.x),
            y0: self.y0.min(p.y),
            x1: self.x1.max(p.x),
            y1: self.y1.max(p.y),
        }
    }

    /// Bounding box of a set of points. Returns `None` for an empty set.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::at_point(first);
        for p in it {
            r = r.expand_to(p);
        }
        Some(r)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} – {},{}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        assert_eq!(Rect::new(10, 8, 2, 3), Rect::new(2, 3, 10, 8));
    }

    #[test]
    fn intersection_basics() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 10, 10)));
        let c = Rect::new(11, 11, 12, 12);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn edge_sharing_is_not_interior_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(a.intersects(&b));
        // The overlap is the shared edge itself: no area.
        assert_eq!(a.intersect(&b), Some(Rect::new(10, 0, 10, 10)));
        assert_eq!(a.intersect(&b).map(|r| r.area()), Some(0));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [Point::new(3, 9), Point::new(-1, 2), Point::new(5, 5)];
        assert_eq!(Rect::bounding(pts), Some(Rect::new(-1, 2, 5, 9)));
        assert_eq!(Rect::bounding(std::iter::empty()), None);
    }

    #[test]
    fn hull_contains_both() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(5, 5, 9, 6);
        let h = a.hull(&b);
        assert!(h.contains_rect(&a) && h.contains_rect(&b));
    }

    #[test]
    fn span_projects_correct_axis() {
        let r = Rect::new(1, 2, 7, 11);
        assert_eq!(r.span(Dir::Horizontal), Interval::new(1, 7));
        assert_eq!(r.span(Dir::Vertical), Interval::new(2, 11));
    }

    #[test]
    fn area_does_not_overflow_large_die() {
        let r = Rect::new(0, 0, i64::MAX / 4, i64::MAX / 4);
        assert!(r.area() > 0);
    }
}
