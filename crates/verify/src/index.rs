//! Drawn-geometry extraction and the sequential plane sweep that finds
//! the candidate pairs of the short and spacing checks.
//!
//! All drawn rectangles are kept in **doubled coordinates** so that the
//! half-width expansion of a centerline stays integral: a segment of
//! centerline `[p, q]` on a layer with wire width `w` occupies the
//! doubled-coordinate rectangle `[2p − w, 2q + w]` per axis (half-width
//! `w/2` doubles to `w`). Gaps measured in doubled coordinates are twice
//! the layout-unit gap.

use ocr_geom::{Coord, Dir, Layer, LayerSet, Point};
use ocr_netlist::{DesignRules, Layout, NetId, RoutedDesign};

/// One drawn rectangle of metal, in doubled coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Drawn {
    /// Owning net.
    pub net: NetId,
    /// Metal layer.
    pub layer: Layer,
    /// Doubled-coordinate bounds.
    pub x0: i64,
    /// Doubled-coordinate bounds.
    pub y0: i64,
    /// Doubled-coordinate bounds.
    pub x1: i64,
    /// Doubled-coordinate bounds.
    pub y1: i64,
}

impl Drawn {
    /// Center of the rectangle in original layout coordinates
    /// (rounded), for violation reports.
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 4, (self.y0 + self.y1) / 4)
    }
}

/// Extracts every drawn rectangle of the design. A stacked via is a
/// full column: it gets a landing pad on every layer it spans.
///
/// Layers in `drawn_layers` are expanded to their full wire width and
/// via pad size; on the remaining layers wires and vias are kept as
/// zero-width centerlines/points, which models the electrical contract
/// of a track-based router whose tracks may sit off-pitch (distinct
/// tracks never touch, but their drawn widths may be closer than the
/// physical spacing rule).
pub fn build_drawn(layout: &Layout, design: &RoutedDesign, drawn_layers: LayerSet) -> Vec<Drawn> {
    let rules: &DesignRules = &layout.rules;
    let mut out = Vec::new();
    for (net, route) in design.iter_routes() {
        for seg in &route.segs {
            let w = if drawn_layers.contains(seg.layer()) {
                rules.layer(seg.layer()).wire_width
            } else {
                0
            };
            let (a, b) = (seg.a(), seg.b());
            out.push(Drawn {
                net,
                layer: seg.layer(),
                x0: 2 * a.x - w,
                y0: 2 * a.y - w,
                x1: 2 * b.x + w,
                y1: 2 * b.y + w,
            });
        }
        for via in &route.vias {
            for layer in Layer::ALL.into_iter().filter(|&l| via.spans(l)) {
                let v = if drawn_layers.contains(layer) {
                    rules
                        .layer(layer)
                        .via_size
                        .max(rules.layer(layer).wire_width)
                } else {
                    0
                };
                out.push(Drawn {
                    net,
                    layer,
                    x0: 2 * via.at.x - v,
                    y0: 2 * via.at.y - v,
                    x1: 2 * via.at.x + v,
                    y1: 2 * via.at.y + v,
                });
            }
        }
    }
    out
}

/// Separation between two drawn rectangles in doubled coordinates:
/// `(dx, dy)` axis gaps, both zero when the rectangles overlap or touch.
pub fn gap2(a: &Drawn, b: &Drawn) -> (i64, i64) {
    let dx = (b.x0 - a.x1).max(a.x0 - b.x1).max(0);
    let dy = (b.y0 - a.y1).max(a.y0 - b.y1).max(0);
    (dx, dy)
}

/// Calls `f(j, i)` once for every unordered pair of same-layer items
/// whose doubled `x` and `y` gaps are both below `margin2`. `j` and `i`
/// are indices into `items`; the caller does the exact distance test.
///
/// Each layer group is swept across its [`Layer::preferred_dir`]: by `y`
/// on the horizontal layers, by `x` on the vertical ones. Each item scans
/// back through its group and stops at the first position whose prefix
/// maximum of the far edge on that axis is already out of range. Wires
/// run along the sweep front, so a long wire does not keep that maximum
/// high and the scan stays short.
pub fn for_each_near_pair(items: &[Drawn], margin2: i64, mut f: impl FnMut(usize, usize)) {
    let mut by_layer: [Vec<usize>; 4] = Default::default();
    for (i, d) in items.iter().enumerate() {
        by_layer[d.layer.index()].push(i);
    }
    let mut pmax_hi = Vec::new();
    for (layer, group) in Layer::ALL.into_iter().zip(by_layer.iter_mut()) {
        let across = |d: &Drawn| match layer.preferred_dir() {
            Dir::Horizontal => (d.y0, d.y1),
            Dir::Vertical => (d.x0, d.x1),
        };
        group.sort_unstable_by_key(|&i| across(&items[i]).0);
        pmax_hi.clear();
        let mut running_max = i64::MIN;
        for &i in group.iter() {
            running_max = running_max.max(across(&items[i]).1);
            pmax_hi.push(running_max);
        }
        for (pos, &i) in group.iter().enumerate() {
            let lo = across(&items[i]).0;
            for qos in (0..pos).rev() {
                if pmax_hi[qos] + margin2 <= lo {
                    break;
                }
                let j = group[qos];
                let (dx, dy) = gap2(&items[j], &items[i]);
                if dx < margin2 && dy < margin2 {
                    f(j, i);
                }
            }
        }
    }
}

/// Required minimum spacing for a layer, in doubled coordinates.
pub fn spacing2(rules: &DesignRules, layer: Layer) -> i64 {
    2 * rules.layer(layer).wire_spacing
}

/// The layer's required spacing in layout units (for reports).
pub fn spacing_required(rules: &DesignRules, layer: Layer) -> Coord {
    rules.layer(layer).wire_spacing
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_netlist::NetId;

    /// A plain LCG (no RNG dependency in this crate).
    fn lcg(mut state: u64) -> impl FnMut() -> i64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        }
    }

    /// A deterministic pseudo-random scatter of drawn rectangles across
    /// all four layers.
    fn scatter(n: usize) -> Vec<Drawn> {
        let mut next = lcg(0x2545_F491_4F6C_DD1D);
        (0..n)
            .map(|k| {
                let x0 = next() % 2_000;
                let y0 = next() % 2_000;
                let w = 2 + next() % 60;
                let h = 2 + next() % 60;
                Drawn {
                    net: NetId((k % 17) as u32),
                    layer: Layer::ALL[(next() % 4) as usize],
                    x0,
                    y0,
                    x1: x0 + w,
                    y1: y0 + h,
                }
            })
            .collect()
    }

    /// Every unordered same-layer pair with both gaps below `margin2`,
    /// by brute force over all pairs.
    fn brute_force(items: &[Drawn], margin2: i64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                let (dx, dy) = gap2(&items[i], &items[j]);
                if items[i].layer == items[j].layer && dx < margin2 && dy < margin2 {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// The sweep's pairs, each as `(min, max)`, sorted but not deduped, so
    /// a pair visited twice shows as an extra entry.
    fn swept(items: &[Drawn], margin2: i64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for_each_near_pair(items, margin2, |j, i| pairs.push((j.min(i), j.max(i))));
        pairs.sort_unstable();
        pairs
    }

    /// Wires shaped like routed geometry: long along their layer's
    /// preferred direction, on a track pitch, with via pads at their
    /// ends, plus one die-wide Metal3 wire that every later Metal3 item
    /// would scan past in an `x0`-sorted sweep.
    fn route_like(n: usize) -> Vec<Drawn> {
        let mut next = lcg(0x9E37_79B9_7F4A_7C15);
        // The centerline `(x0, y0)-(x1, y1)` grown by `h` on every side.
        let drawn = |net, layer, (x0, y0, x1, y1): (i64, i64, i64, i64), h| Drawn {
            net: NetId(net),
            layer,
            x0: x0 - h,
            y0: y0 - h,
            x1: x1 + h,
            y1: y1 + h,
        };
        let mut items = vec![drawn(99, Layer::Metal3, (0, 1_000, 4_000, 1_000), 4)];
        for k in 0..n {
            let layer = Layer::ALL[(next() % 4) as usize];
            let net = (k % 23) as u32;
            let track = 20 * (next() % 200);
            let (a, b) = (next() % 4_000, next() % 4_000);
            let (lo, hi) = (a.min(b), a.max(b).min(a.min(b) + 800));
            let (x0, y0, x1, y1) = match layer.preferred_dir() {
                Dir::Horizontal => (lo, track, hi, track),
                Dir::Vertical => (track, lo, track, hi),
            };
            items.push(drawn(net, layer, (x0, y0, x1, y1), 4));
            items.push(drawn(net, layer, (x0, y0, x0, y0), 6));
            items.push(drawn(net, layer, (x1, y1, x1, y1), 6));
        }
        items
    }

    #[test]
    fn sweep_matches_brute_force_on_scatter() {
        let items = scatter(300);
        for margin2 in [1, 24, 40] {
            let reference = brute_force(&items, margin2);
            assert!(!reference.is_empty(), "scatter must produce near pairs");
            assert_eq!(swept(&items, margin2), reference, "margin {margin2}");
        }
    }

    #[test]
    fn sweep_matches_brute_force_on_route_shaped_wires() {
        let items = route_like(400);
        // Pads on one track sit 8 apart and wires on adjacent tracks 12,
        // so margins 8 and 12 put gaps exactly on the bound.
        for margin2 in [1, 8, 12, 24] {
            let reference = brute_force(&items, margin2);
            assert!(
                reference.iter().any(|&(i, _)| i == 0),
                "the die-wide wire must have near pairs"
            );
            assert_eq!(swept(&items, margin2), reference, "margin {margin2}");
        }
    }
}
