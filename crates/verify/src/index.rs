//! Drawn-geometry extraction and the spatial sweep used by the short
//! and spacing checks.
//!
//! All drawn rectangles are kept in **doubled coordinates** so that the
//! half-width expansion of a centerline stays integral: a segment of
//! centerline `[p, q]` on a layer with wire width `w` occupies the
//! doubled-coordinate rectangle `[2p − w, 2q + w]` per axis (half-width
//! `w/2` doubles to `w`). Gaps measured in doubled coordinates are twice
//! the layout-unit gap.

use ocr_geom::{Coord, Layer, LayerSet, Point};
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

/// A spatially-binned plane sweep over the drawn geometry, prepared
/// once and then evaluated bin-by-bin (in parallel across the `ocr-exec`
/// pool by [`crate::verify_with`]).
///
/// Items are grouped per layer and sorted by `x0`; the sorted order is
/// cut into contiguous **bins** that never straddle a layer group. A
/// candidate pair `(j, i)` (with `j` earlier in the sorted order) is
/// discovered exactly once, by the bin containing `i`: each `i` scans
/// backwards through its layer group and stops at the first position
/// whose *prefix-maximum* `x1` is already out of range. The pair set is
/// therefore identical to a classical single-threaded active-list sweep,
/// independent of the bin size and of how bins are scheduled.
pub struct PairSweep {
    /// Item indices grouped by layer, sorted by `x0` within each group.
    order: Vec<usize>,
    /// Prefix maximum of `x1` within each layer group, aligned to
    /// [`PairSweep::order`].
    pmax_x1: Vec<i64>,
    /// Start offset (into `order`) of the layer group each position
    /// belongs to, aligned to [`PairSweep::order`].
    group_start: Vec<usize>,
    /// Contiguous `[lo, hi)` chunks of `order`, each within one layer
    /// group.
    bins: Vec<(usize, usize)>,
}

impl PairSweep {
    /// Prepares the sweep over `items`, cutting each layer group into
    /// bins of at most `bin_size` sweep positions.
    pub fn new(items: &[Drawn], bin_size: usize) -> PairSweep {
        let bin_size = bin_size.max(1);
        let mut by_layer: [Vec<usize>; 4] = Default::default();
        for (i, d) in items.iter().enumerate() {
            by_layer[d.layer.index()].push(i);
        }
        let mut order = Vec::with_capacity(items.len());
        let mut pmax_x1 = Vec::with_capacity(items.len());
        let mut group_start = Vec::with_capacity(items.len());
        let mut bins = Vec::new();
        for group in by_layer.iter_mut() {
            group.sort_unstable_by_key(|&i| items[i].x0);
            let start = order.len();
            let mut running_max = i64::MIN;
            for &i in group.iter() {
                running_max = running_max.max(items[i].x1);
                order.push(i);
                pmax_x1.push(running_max);
                group_start.push(start);
            }
            let mut lo = start;
            while lo < order.len() {
                let hi = lo.saturating_add(bin_size).min(order.len());
                bins.push((lo, hi));
                lo = hi;
            }
        }
        PairSweep {
            order,
            pmax_x1,
            group_start,
            bins,
        }
    }

    /// The bins to evaluate; pass each to
    /// [`PairSweep::for_each_pair_in_bin`].
    pub fn bins(&self) -> &[(usize, usize)] {
        &self.bins
    }

    /// Calls `f(j, i)` for every near pair whose later element `i` falls
    /// in `bin`. `j` and `i` are indices into the original `items`
    /// slice; the caller does the exact distance test.
    pub fn for_each_pair_in_bin(
        &self,
        items: &[Drawn],
        margin2: i64,
        bin: (usize, usize),
        mut f: impl FnMut(usize, usize),
    ) {
        for pos in bin.0..bin.1 {
            let i = self.order[pos];
            let cur = &items[i];
            for qos in (self.group_start[pos]..pos).rev() {
                if self.pmax_x1[qos] + margin2 <= cur.x0 {
                    break;
                }
                let j = self.order[qos];
                if items[j].x1 + margin2 <= cur.x0 {
                    continue;
                }
                // y prefilter; the caller does the exact distance test.
                let (_, dy) = gap2(cur, &items[j]);
                if dy < margin2 {
                    f(j, i);
                }
            }
        }
    }
}

/// Calls `f(i, j)` for every pair of same-layer items whose doubled
/// x-gap is below `margin2`, sequentially. Equivalent to evaluating
/// every bin of a [`PairSweep`] in order; kept as the reference
/// implementation for the equivalence tests below.
#[cfg(test)]
pub fn for_each_near_pair(items: &[Drawn], margin2: i64, mut f: impl FnMut(usize, usize)) {
    let sweep = PairSweep::new(items, usize::MAX);
    for &bin in sweep.bins() {
        sweep.for_each_pair_in_bin(items, margin2, bin, &mut f);
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

    /// A deterministic pseudo-random scatter of drawn rectangles across
    /// all four layers (plain LCG — no RNG dependency in this crate).
    fn scatter(n: usize) -> Vec<Drawn> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
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

    fn pair_set(items: &[Drawn], margin2: i64, bin_size: usize) -> Vec<(usize, usize)> {
        let sweep = PairSweep::new(items, bin_size);
        let mut pairs = Vec::new();
        for &bin in sweep.bins() {
            sweep.for_each_pair_in_bin(items, margin2, bin, |i, j| pairs.push((i, j)));
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn binned_sweep_matches_reference_for_every_bin_size() {
        let items = scatter(300);
        let margin2 = 24;
        let mut reference = Vec::new();
        for_each_near_pair(&items, margin2, |i, j| reference.push((i, j)));
        reference.sort_unstable();
        assert!(!reference.is_empty(), "scatter must produce near pairs");
        for bin_size in [1, 7, 64, 300, 100_000] {
            assert_eq!(
                pair_set(&items, margin2, bin_size),
                reference,
                "bin {bin_size}"
            );
        }
    }

    #[test]
    fn pairs_are_same_layer_and_visited_once() {
        let items = scatter(200);
        let pairs = pair_set(&items, 40, 16);
        let mut seen = pairs.clone();
        seen.dedup();
        assert_eq!(seen.len(), pairs.len(), "no duplicate pairs");
        for (i, j) in pairs {
            assert_ne!(i, j);
            assert_eq!(items[i].layer, items[j].layer);
        }
    }

    #[test]
    fn bins_never_straddle_layer_groups() {
        let items = scatter(257);
        let sweep = PairSweep::new(&items, 10);
        for &(lo, hi) in sweep.bins() {
            assert!(lo < hi);
            let l = items[sweep.order[lo]].layer;
            assert!((lo..hi).all(|p| items[sweep.order[p]].layer == l));
        }
    }
}
