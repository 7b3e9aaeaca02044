//! Design-rule checks: shorts, spacing, min-width slivers, via landing,
//! die containment, and obstacle intrusion.

use crate::index::{build_drawn, for_each_near_pair, gap2, spacing2, spacing_required, Drawn};
use crate::violation::Violation;
use ocr_geom::{Layer, LayerSet, Point, Rect};
use ocr_netlist::{Layout, NetId, NetRoute, RouteSeg, RoutedDesign};

/// `true` when the segment's centerline passes through `p`.
fn seg_contains(seg: &RouteSeg, p: Point) -> bool {
    let (a, b) = (seg.a(), seg.b());
    a.x <= p.x && p.x <= b.x && a.y <= p.y && p.y <= b.y
}

/// Strict-interior crossing: the centerline passes through the open
/// interior of `r`. Touching the boundary is not a crossing (terminals
/// sit on cell boundaries; the paper routes up to them).
fn seg_crosses_interior(seg: &RouteSeg, r: &Rect) -> bool {
    let (a, b) = (seg.a(), seg.b());
    if a.y == b.y {
        a.y > r.y0() && a.y < r.y1() && a.x < r.x1() && b.x > r.x0()
    } else {
        a.x > r.x0() && a.x < r.x1() && a.y < r.y1() && b.y > r.y0()
    }
}

/// Short + spacing checks over the drawn geometry of the whole design.
///
/// On layers in `drawn_layers` geometry is expanded to full wire widths
/// and both touching (short) and sub-spacing proximity are flagged; on
/// the remaining layers only centerline contact between distinct nets is
/// a violation (an electrical short in the track model).
pub fn check_spacing(
    layout: &Layout,
    design: &RoutedDesign,
    drawn_layers: LayerSet,
    out: &mut Vec<Violation>,
) {
    let items = build_drawn(layout, design, drawn_layers);
    let max_s2 = Layer::ALL
        .into_iter()
        .map(|l| spacing2(&layout.rules, l))
        .max()
        .unwrap_or(0);
    ocr_obs::count("verify.sweep.items", items.len() as u64);
    let mut found = Vec::new();
    let mut pairs = 0u64;
    for_each_near_pair(&items, max_s2, |i, j| {
        pairs += 1;
        if let Some(v) = pair_violation(layout, drawn_layers, &items[i], &items[j]) {
            found.push(v);
        }
    });
    ocr_obs::count("verify.sweep.pairs", pairs);
    // The sweep visits each pair of drawn items once, so two nets that
    // meet in several places yield several findings; dedupe
    // same-(nets, layer, kind) repeats to keep reports readable.
    found.sort_by_cached_key(|v| format!("{v:?}"));
    found.dedup_by(|u, v| {
        let key = |w: &Violation| match *w {
            Violation::Short { a, b, layer, .. } => (a, b, layer, 0u8),
            Violation::Spacing { a, b, layer, .. } => (a, b, layer, 1u8),
            _ => unreachable!(),
        };
        key(u) == key(v)
    });
    out.extend(found);
}

/// The exact short/spacing test for one candidate pair of drawn
/// rectangles (same layer, distinct nets ordered by id in the report).
fn pair_violation(
    layout: &Layout,
    drawn_layers: LayerSet,
    a: &Drawn,
    b: &Drawn,
) -> Option<Violation> {
    if a.net == b.net {
        return None;
    }
    let (dx, dy) = gap2(a, b);
    let s2 = spacing2(&layout.rules, a.layer);
    let at = Point::new(
        (a.center().x + b.center().x) / 2,
        (a.center().y + b.center().y) / 2,
    );
    let (lo, hi) = if a.net.0 <= b.net.0 {
        (a.net, b.net)
    } else {
        (b.net, a.net)
    };
    if dx == 0 && dy == 0 {
        Some(Violation::Short {
            a: lo,
            b: hi,
            layer: a.layer,
            at,
        })
    } else if drawn_layers.contains(a.layer) && dx * dx + dy * dy < s2 * s2 {
        Some(Violation::Spacing {
            a: lo,
            b: hi,
            layer: a.layer,
            at,
            gap: ((dx * dx + dy * dy) as f64).sqrt() / 2.0,
            required: spacing_required(&layout.rules, a.layer),
        })
    } else {
        None
    }
}

/// `true` when either endpoint of segment `si` touches no other
/// same-net geometry (segment, via, or terminal).
fn has_free_end(seg: &RouteSeg, si: usize, route: &NetRoute, pins: &[(Point, Layer)]) -> bool {
    let attached = |p: Point| {
        route
            .segs
            .iter()
            .enumerate()
            .any(|(j, s)| j != si && s.layer() == seg.layer() && seg_contains(s, p))
            || route.vias.iter().any(|v| v.at == p && v.spans(seg.layer()))
            || pins.iter().any(|&(pos, l)| pos == p && l == seg.layer())
    };
    !attached(seg.a()) || !attached(seg.b())
}

/// Per-segment and per-via local checks: min-width slivers, via landing
/// pads, die containment, and obstacle intrusion.
pub fn check_geometry(layout: &Layout, design: &RoutedDesign, out: &mut Vec<Violation>) {
    // Every check here is local to one net's geometry, so nets fan out
    // across the ocr-exec pool; per-net violation lists merge in net-id
    // order, matching the sequential iteration exactly.
    let routes: Vec<(NetId, &NetRoute)> = design.iter_routes().collect();
    let per_net: Vec<Vec<Violation>> = ocr_exec::parallel_map(&routes, |&(net, route)| {
        let mut found = Vec::new();
        check_net_geometry(layout, design, net, route, &mut found);
        found
    });
    out.extend(per_net.into_iter().flatten());
}

/// Local checks for one net's geometry (see [`check_geometry`]).
fn check_net_geometry(
    layout: &Layout,
    design: &RoutedDesign,
    net: NetId,
    route: &NetRoute,
    out: &mut Vec<Violation>,
) {
    let die = design.die;
    // Pins per net, for via-landing checks.
    let pin_spots = |net: NetId| {
        layout.nets[net.index()]
            .pins
            .iter()
            .map(|&p| (layout.pin(p).position, layout.pin(p).layer))
    };
    let net_pins: Vec<(Point, Layer)> = layout.nets[net.index()]
        .pins
        .iter()
        .map(|&p| (layout.pin(p).position, layout.pin(p).layer))
        .collect();
    for (si, seg) in route.segs.iter().enumerate() {
        let rules = layout.rules.layer(seg.layer());
        // A sub-width segment is a sliver only when one of its ends
        // protrudes freely; short jogs joined into the net's metal
        // at both ends are part of a wider drawn polygon.
        if !seg.is_empty()
            && seg.len() < rules.wire_width
            && has_free_end(seg, si, route, &net_pins)
        {
            out.push(Violation::MinWidth {
                net,
                layer: seg.layer(),
                at: seg.a(),
                length: seg.len(),
                required: rules.wire_width,
            });
        }
        if !die.contains_rect(&seg.bbox()) {
            out.push(Violation::OutsideDie {
                net,
                layer: Some(seg.layer()),
                at: seg.a(),
            });
        }
        for (k, ob) in layout.obstacles.iter().enumerate() {
            if ob.blocks(seg.layer()) && seg_crosses_interior(seg, &ob.rect) {
                out.push(Violation::ObstacleIntrusion {
                    net,
                    obstacle: k,
                    layer: seg.layer(),
                    at: seg.a(),
                });
            }
        }
    }
    for via in &route.vias {
        if !die.contains(via.at) {
            out.push(Violation::OutsideDie {
                net,
                layer: None,
                at: via.at,
            });
        }
        for end in [via.lower, via.upper] {
            let landed = route
                .segs
                .iter()
                .any(|s| s.layer() == end && seg_contains(s, via.at))
                || pin_spots(net).any(|(pos, l)| l == end && pos == via.at)
                || route
                    .vias
                    .iter()
                    .any(|v| !std::ptr::eq(v, via) && v.at == via.at && v.spans(end));
            if !landed {
                out.push(Violation::ViaLanding {
                    net,
                    at: via.at,
                    missing: end,
                });
            }
        }
    }
}
