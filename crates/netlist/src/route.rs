//! Routed geometry: wire segments, vias, per-net routes and the routed
//! design.

use crate::NetId;
use ocr_geom::{Coord, Dir, Interval, Layer, Point, Rect};
use std::fmt;

/// An axis-parallel wire segment on one metal layer.
///
/// Endpoints are stored normalized (`a ≤ b` along the run axis). A
/// zero-length segment is legal and represents a touch-down point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteSeg {
    a: Point,
    b: Point,
    layer: Layer,
}

impl RouteSeg {
    /// Creates a segment between two points that share an axis.
    ///
    /// # Panics
    ///
    /// Panics if the points are neither horizontally nor vertically
    /// aligned.
    pub fn new(a: Point, b: Point, layer: Layer) -> Self {
        assert!(
            a.x == b.x || a.y == b.y,
            "route segment {a} – {b} is not axis-parallel"
        );
        let (a, b) = if (a.x, a.y) <= (b.x, b.y) {
            (a, b)
        } else {
            (b, a)
        };
        RouteSeg { a, b, layer }
    }

    /// First endpoint (lexicographically smaller).
    #[inline]
    pub fn a(&self) -> Point {
        self.a
    }

    /// Second endpoint.
    #[inline]
    pub fn b(&self) -> Point {
        self.b
    }

    /// The metal layer the segment runs on.
    #[inline]
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Run direction. A zero-length segment reports the layer's preferred
    /// direction.
    #[inline]
    pub fn dir(&self) -> Dir {
        if self.a.y == self.b.y && self.a.x != self.b.x {
            Dir::Horizontal
        } else if self.a.x == self.b.x && self.a.y != self.b.y {
            Dir::Vertical
        } else {
            self.layer.preferred_dir()
        }
    }

    /// Manhattan length.
    #[inline]
    pub fn len(&self) -> Coord {
        (self.b.x - self.a.x) + (self.b.y - self.a.y)
    }

    /// `true` for a zero-length (touch-down) segment.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.a == self.b
    }

    /// The fixed cross-axis offset (the track the segment occupies).
    #[inline]
    pub fn track_offset(&self) -> Coord {
        match self.dir() {
            Dir::Horizontal => self.a.y,
            Dir::Vertical => self.a.x,
        }
    }

    /// The along-axis closed interval the segment covers.
    #[inline]
    pub fn interval(&self) -> Interval {
        match self.dir() {
            Dir::Horizontal => Interval::new(self.a.x, self.b.x),
            Dir::Vertical => Interval::new(self.a.y, self.b.y),
        }
    }

    /// Zero-width bounding rectangle of the centerline.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::from_points(self.a, self.b)
    }
}

impl fmt::Display for RouteSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{} on {}", self.a, self.b, self.layer)
    }
}

/// A via stack connecting `lower` to `upper` at one location.
///
/// A stack between non-adjacent layers represents the paper's
/// terminal-only pass-through of intervening layers; it contributes
/// `lower.via_cuts_to(upper)` cuts to the via count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Via {
    /// Via location.
    pub at: Point,
    /// Bottom layer of the stack.
    pub lower: Layer,
    /// Top layer of the stack.
    pub upper: Layer,
}

impl Via {
    /// Creates a via stack; layer order is normalized.
    pub fn new(at: Point, a: Layer, b: Layer) -> Self {
        let (lower, upper) = if a.index() <= b.index() {
            (a, b)
        } else {
            (b, a)
        };
        Via { at, lower, upper }
    }

    /// Number of physical via cuts in the stack.
    #[inline]
    pub fn cuts(&self) -> usize {
        self.lower.via_cuts_to(self.upper)
    }

    /// `true` if the stack makes `layer` electrically common with the
    /// rest of the stack (layer lies within `[lower, upper]`).
    #[inline]
    pub fn spans(&self, layer: Layer) -> bool {
        self.lower.index() <= layer.index() && layer.index() <= self.upper.index()
    }
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "via {}–{} at {}", self.lower, self.upper, self.at)
    }
}

/// The routed geometry of one net.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetRoute {
    /// Wire segments (all layers).
    pub segs: Vec<RouteSeg>,
    /// Via stacks.
    pub vias: Vec<Via>,
}

impl NetRoute {
    /// Creates an empty route.
    pub fn new() -> Self {
        NetRoute::default()
    }

    /// Total Manhattan wire length over all segments.
    pub fn wire_length(&self) -> Coord {
        self.segs.iter().map(|s| s.len()).sum()
    }

    /// Total via cuts.
    pub fn via_cuts(&self) -> usize {
        self.vias.iter().map(|v| v.cuts()).sum()
    }

    /// Number of direction changes (corners), the paper's primary routing
    /// quality measure alongside wire length. Counted as the number of
    /// same-level vias between perpendicular segments plus explicit bends
    /// within a layer; for HV-discipline routes this equals the number of
    /// single-cut vias joining an M3 and an M4 segment (or M1/M2).
    pub fn corner_count(&self) -> usize {
        self.vias
            .iter()
            .filter(|v| {
                v.cuts() == 1 && {
                    // A corner via joins the two layers of one routing level.
                    (v.lower == Layer::Metal1 && v.upper == Layer::Metal2)
                        || (v.lower == Layer::Metal3 && v.upper == Layer::Metal4)
                }
            })
            .count()
    }

    /// Appends another route (used when stitching Steiner branches).
    pub fn extend(&mut self, other: NetRoute) {
        self.segs.extend(other.segs);
        self.vias.extend(other.vias);
    }

    /// Merges overlapping or abutting collinear same-layer segments and
    /// deduplicates vias, so [`NetRoute::wire_length`] never
    /// double-counts wiring that several Steiner branches share.
    ///
    /// ```
    /// use ocr_geom::{Layer, Point};
    /// use ocr_netlist::{NetRoute, RouteSeg};
    ///
    /// let mut r = NetRoute::new();
    /// r.segs.push(RouteSeg::new(Point::new(0, 0), Point::new(60, 0), Layer::Metal3));
    /// r.segs.push(RouteSeg::new(Point::new(40, 0), Point::new(100, 0), Layer::Metal3));
    /// r.normalize();
    /// assert_eq!(r.segs.len(), 1);
    /// assert_eq!(r.wire_length(), 100);
    /// ```
    pub fn normalize(&mut self) {
        use std::collections::BTreeMap;
        // Group by (layer, direction, track offset); merge intervals.
        let mut groups: BTreeMap<(usize, usize, Coord), Vec<Interval>> = BTreeMap::new();
        let mut keep: Vec<RouteSeg> = Vec::new();
        for seg in self.segs.drain(..) {
            if seg.is_empty() {
                continue;
            }
            groups
                .entry((seg.layer().index(), seg.dir().index(), seg.track_offset()))
                .or_default()
                .push(seg.interval());
        }
        for ((layer, dir, offset), mut ivs) in groups {
            ivs.sort_by_key(|iv| (iv.lo(), iv.hi()));
            let mut cur = ivs[0];
            let flush = |iv: Interval, keep: &mut Vec<RouteSeg>| {
                let d = if dir == 0 {
                    Dir::Horizontal
                } else {
                    Dir::Vertical
                };
                let a = Point::from_track(d, offset, iv.lo());
                let b = Point::from_track(d, offset, iv.hi());
                keep.push(RouteSeg::new(a, b, ocr_geom::Layer::from_index(layer)));
            };
            for iv in &ivs[1..] {
                if iv.lo() <= cur.hi() {
                    cur = cur.hull(iv);
                } else {
                    flush(cur, &mut keep);
                    cur = *iv;
                }
            }
            flush(cur, &mut keep);
        }
        self.segs = keep;
        self.vias
            .sort_by_key(|v| (v.at, v.lower.index(), v.upper.index()));
        self.vias.dedup();
    }

    /// `true` if the route has no geometry at all.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty() && self.vias.is_empty()
    }
}

/// The output of a complete routing flow: a (possibly expanded) die and
/// one route per net, with unroutable nets recorded rather than dropped.
#[derive(Clone, Debug)]
pub struct RoutedDesign {
    /// Final die after any channel expansion.
    pub die: Rect,
    /// Per-net routes, indexed by [`NetId`]; `None` for nets that were
    /// not routed (failed or intentionally skipped).
    pub routes: Vec<Option<NetRoute>>,
    /// Nets the flow failed to route.
    pub failed: Vec<NetId>,
}

impl RoutedDesign {
    /// Creates an empty design over `die` with `net_count` route slots.
    pub fn new(die: Rect, net_count: usize) -> Self {
        RoutedDesign {
            die,
            routes: vec![None; net_count],
            failed: Vec::new(),
        }
    }

    /// Installs a route for `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_route(&mut self, net: NetId, route: NetRoute) {
        self.routes[net.index()] = Some(route);
    }

    /// Marks `net` as failed.
    pub fn set_failed(&mut self, net: NetId) {
        if !self.failed.contains(&net) {
            self.failed.push(net);
        }
    }

    /// The route of `net`, if any.
    pub fn route(&self, net: NetId) -> Option<&NetRoute> {
        self.routes.get(net.index()).and_then(|r| r.as_ref())
    }

    /// Number of routed nets.
    pub fn routed_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// Iterates `(net, route)` over routed nets.
    pub fn iter_routes(&self) -> impl Iterator<Item = (NetId, &NetRoute)> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|route| (NetId(i as u32), route)))
    }

    /// Merges another design routed on the same net universe into this
    /// one (used to combine Level A and Level B results). Routes present
    /// in `other` overwrite empty slots; the die becomes the hull.
    ///
    /// # Panics
    ///
    /// Panics if the two designs have different net counts or if both
    /// designs routed the same net.
    pub fn merge(&mut self, other: RoutedDesign) {
        assert_eq!(
            self.routes.len(),
            other.routes.len(),
            "merging designs over different net universes"
        );
        self.die = self.die.hull(&other.die);
        for (i, r) in other.routes.into_iter().enumerate() {
            if let Some(route) = r {
                assert!(
                    self.routes[i].is_none(),
                    "net#{i} routed by both designs being merged"
                );
                self.routes[i] = Some(route);
            }
        }
        for f in other.failed {
            self.set_failed(f);
        }
    }
}

impl fmt::Display for RoutedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routed design: die {}, {}/{} nets routed, {} failed",
            self.die,
            self.routed_count(),
            self.routes.len(),
            self.failed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seg_normalizes_endpoints() {
        let s = RouteSeg::new(Point::new(10, 5), Point::new(2, 5), Layer::Metal3);
        assert_eq!(s.a(), Point::new(2, 5));
        assert_eq!(s.b(), Point::new(10, 5));
        assert_eq!(s.len(), 8);
        assert_eq!(s.dir(), Dir::Horizontal);
        assert_eq!(s.track_offset(), 5);
    }

    #[test]
    #[should_panic(expected = "not axis-parallel")]
    fn seg_rejects_diagonal() {
        let _ = RouteSeg::new(Point::new(0, 0), Point::new(1, 1), Layer::Metal1);
    }

    #[test]
    fn via_cut_counts_and_span() {
        let v = Via::new(Point::new(1, 1), Layer::Metal4, Layer::Metal2);
        assert_eq!(v.lower, Layer::Metal2);
        assert_eq!(v.cuts(), 2);
        assert!(v.spans(Layer::Metal3));
        assert!(!v.spans(Layer::Metal1));
    }

    #[test]
    fn corner_count_only_counts_level_pair_vias() {
        let mut r = NetRoute::new();
        r.vias
            .push(Via::new(Point::new(0, 0), Layer::Metal3, Layer::Metal4)); // corner
        r.vias
            .push(Via::new(Point::new(1, 0), Layer::Metal2, Layer::Metal3)); // level change
        r.vias
            .push(Via::new(Point::new(2, 0), Layer::Metal1, Layer::Metal4)); // terminal stack
        assert_eq!(r.corner_count(), 1);
        assert_eq!(r.via_cuts(), 1 + 1 + 3);
    }

    #[test]
    fn normalize_merges_overlaps_across_directions_independently() {
        let mut r = NetRoute::new();
        r.segs.push(RouteSeg::new(
            Point::new(0, 5),
            Point::new(50, 5),
            Layer::Metal3,
        ));
        r.segs.push(RouteSeg::new(
            Point::new(30, 5),
            Point::new(80, 5),
            Layer::Metal3,
        ));
        r.segs.push(RouteSeg::new(
            Point::new(80, 5),
            Point::new(100, 5),
            Layer::Metal3,
        )); // abuts
        r.segs.push(RouteSeg::new(
            Point::new(0, 9),
            Point::new(10, 9),
            Layer::Metal3,
        )); // other track
        r.segs.push(RouteSeg::new(
            Point::new(5, 0),
            Point::new(5, 40),
            Layer::Metal4,
        )); // vertical
        r.segs.push(RouteSeg::new(
            Point::new(7, 7),
            Point::new(7, 7),
            Layer::Metal4,
        )); // empty, dropped
        r.vias
            .push(Via::new(Point::new(5, 5), Layer::Metal3, Layer::Metal4));
        r.vias
            .push(Via::new(Point::new(5, 5), Layer::Metal3, Layer::Metal4)); // dup
        r.normalize();
        assert_eq!(r.segs.len(), 3);
        assert_eq!(r.wire_length(), 100 + 10 + 40);
        assert_eq!(r.vias.len(), 1);
    }

    #[test]
    fn normalize_keeps_same_offset_different_layers_apart() {
        let mut r = NetRoute::new();
        r.segs.push(RouteSeg::new(
            Point::new(0, 5),
            Point::new(50, 5),
            Layer::Metal1,
        ));
        r.segs.push(RouteSeg::new(
            Point::new(20, 5),
            Point::new(70, 5),
            Layer::Metal3,
        ));
        r.normalize();
        assert_eq!(r.segs.len(), 2);
        assert_eq!(r.wire_length(), 100);
    }

    #[test]
    fn merge_combines_disjoint_routes() {
        let mut a = RoutedDesign::new(Rect::new(0, 0, 10, 10), 2);
        let mut b = RoutedDesign::new(Rect::new(0, 0, 12, 8), 2);
        let mut ra = NetRoute::new();
        ra.segs.push(RouteSeg::new(
            Point::new(0, 0),
            Point::new(5, 0),
            Layer::Metal1,
        ));
        a.set_route(NetId(0), ra);
        let mut rb = NetRoute::new();
        rb.segs.push(RouteSeg::new(
            Point::new(0, 1),
            Point::new(5, 1),
            Layer::Metal3,
        ));
        b.set_route(NetId(1), rb);
        a.merge(b);
        assert_eq!(a.routed_count(), 2);
        assert_eq!(a.die, Rect::new(0, 0, 12, 10));
    }

    #[test]
    #[should_panic(expected = "routed by both")]
    fn merge_rejects_double_route() {
        let mut a = RoutedDesign::new(Rect::new(0, 0, 10, 10), 1);
        let mut b = RoutedDesign::new(Rect::new(0, 0, 10, 10), 1);
        a.set_route(NetId(0), NetRoute::new());
        b.set_route(NetId(0), NetRoute::new());
        a.merge(b);
    }
}
