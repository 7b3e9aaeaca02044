//! Three-layer (HVH) channel routing in the tradition of Chen & Liu
//! ("Three-layer channel routing", IEEE TCAD 1984), one of the
//! multi-layer channel routers the paper cites as prior art.
//!
//! With two horizontal layers (metal1 and metal3) over one vertical
//! layer (metal2), every track *y* can carry **two** trunks — one per
//! horizontal layer — because same-`y` trunks on different layers never
//! short. Vertical constraints are unchanged (there is a single vertical
//! layer), so two subnets may share a track only if neither must be
//! above the other.
//!
//! The router is the two-lane case of the constrained left-edge
//! algorithm, `route_lanes::<2>` in [`crate::left_edge`]: the
//! two-layer router is its one-lane case, so cycle breaking, trunk
//! merging and branch emission exist once. In the ideal case the track
//! count halves relative to the two-layer router — the theoretical basis
//! for the paper's "50 %" analytic model.

use crate::error::ChannelError;
use crate::geometry::ChannelPlan;
use crate::left_edge::{route_lanes, LeftEdgeOptions};
use crate::ChannelProblem;
use ocr_netlist::NetId;
use std::collections::BTreeMap;

/// Result of three-layer routing: a plan per horizontal lane sharing one
/// set of track `y`s.
#[derive(Clone, Debug)]
pub struct ThreeLayerPlan {
    /// Trunks on the lower horizontal layer (metal1), with branches.
    pub lower: ChannelPlan,
    /// Trunks on the upper horizontal layer (metal3). Its `v_wires` are
    /// empty — all branches live in the lower plan's vertical layer.
    pub upper: ChannelPlan,
    /// Shared track count (the channel's height driver).
    pub tracks_used: usize,
}

/// Routes `problem` with the two-lane constrained left-edge algorithm at
/// the default [`LeftEdgeOptions`]: lane 0 (metal1) is the lower plan,
/// lane 1 (metal3) the upper.
///
/// # Errors
///
/// Same failure modes as [`crate::route_left_edge`]:
/// [`ChannelError::SinglePinNet`] and [`ChannelError::UnbreakableCycle`].
pub fn route_three_layer(problem: &ChannelProblem) -> Result<ThreeLayerPlan, ChannelError> {
    let [lower, upper] = route_lanes::<2>(problem, LeftEdgeOptions::default())?;
    Ok(ThreeLayerPlan {
        tracks_used: lower.tracks_used,
        lower,
        upper,
    })
}

/// Emits physical geometry for a three-layer plan within `frame`:
/// lower-lane trunks on metal1, upper-lane trunks on metal3, all
/// branches on the frame's vertical layer, with branch/trunk vias for
/// both lanes (the upper lane's vias are metal2–metal3 stacks).
///
/// The frame's `h_layer` is ignored (the lanes fix their own layers).
///
/// # Errors
///
/// Propagates [`ChannelError`] from the per-lane emission audits.
pub fn emit_three_layer(
    plan: &ThreeLayerPlan,
    frame: &crate::geometry::ChannelFrame,
) -> Result<BTreeMap<NetId, ocr_netlist::NetRoute>, ChannelError> {
    use ocr_geom::Layer;
    let lower_frame = crate::geometry::ChannelFrame {
        h_layer: Layer::Metal1,
        ..frame.clone()
    };
    let upper_frame = crate::geometry::ChannelFrame {
        h_layer: Layer::Metal3,
        ..frame.clone()
    };
    let mut routes = crate::geometry::emit_channel(&plan.lower, &lower_frame)?;
    for (net, route) in crate::geometry::emit_channel(&plan.upper, &upper_frame)? {
        routes.entry(net).or_default().extend(route);
    }
    // Branch/trunk vias for upper-lane trunks: the branches live in the
    // lower plan, so the per-plan emission cannot see these crossings.
    for v in &plan.lower.v_wires {
        let route = routes.entry(v.net).or_default();
        for h in plan.upper.h_wires.iter().filter(|h| h.net == v.net) {
            if h.lo <= v.col && v.col <= h.hi && v.covers_track(h.track) {
                route.vias.push(ocr_netlist::Via::new(
                    ocr_geom::Point::new(frame.col_x[v.col], frame.track_y(h.track)),
                    frame.v_layer,
                    Layer::Metal3,
                ));
            }
        }
    }
    for route in routes.values_mut() {
        route.normalize();
    }
    Ok(routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::left_edge::route_left_edge;

    #[test]
    fn independent_nets_share_tracks_across_lanes() {
        // Two fully overlapping nets with no vertical constraints: the
        // two-layer router needs 2 tracks, three-layer needs 1.
        let p = ChannelProblem::from_ids(&[1, 2, 0, 0], &[0, 0, 1, 2]);
        let two = route_left_edge(&p, LeftEdgeOptions::default()).expect("2-layer");
        let three = route_three_layer(&p).expect("3-layer");
        assert_eq!(two.tracks_used, 2);
        assert_eq!(three.tracks_used, 1);
    }

    #[test]
    fn vcg_constrained_nets_still_stack_vertically() {
        // Column 0 forces net 1 above net 2: they cannot share a track
        // even with two lanes.
        let p = ChannelProblem::from_ids(&[1, 1, 0], &[2, 0, 2]);
        let three = route_three_layer(&p).expect("3-layer");
        assert_eq!(three.tracks_used, 2);
        let t1 = three
            .lower
            .h_wires
            .iter()
            .chain(&three.upper.h_wires)
            .find(|h| h.net == NetId(1))
            .expect("net 1")
            .track;
        let t2 = three
            .lower
            .h_wires
            .iter()
            .chain(&three.upper.h_wires)
            .find(|h| h.net == NetId(2))
            .expect("net 2")
            .track;
        assert!(t1 < t2);
    }

    #[test]
    fn three_layer_never_uses_more_tracks_than_two_layer() {
        use ocr_gen::rng::Rng;
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..20 {
            let width = 24;
            let mut top = vec![0u32; width];
            let mut bottom = vec![0u32; width];
            for net in 1..=6u32 {
                for _ in 0..3 {
                    let c = rng.gen_range(0..width);
                    if rng.gen_bool(0.5) && top[c] == 0 {
                        top[c] = net;
                    } else if bottom[c] == 0 {
                        bottom[c] = net;
                    }
                }
            }
            let mut counts = std::collections::HashMap::new();
            for &n in top.iter().chain(bottom.iter()) {
                if n != 0 {
                    *counts.entry(n).or_insert(0usize) += 1;
                }
            }
            for row in [&mut top, &mut bottom] {
                for v in row.iter_mut() {
                    if *v != 0 && counts[v] < 2 {
                        *v = 0;
                    }
                }
            }
            let p = ChannelProblem::from_ids(&top, &bottom);
            if p.nets().is_empty() {
                continue;
            }
            let (Ok(two), Ok(three)) = (
                route_left_edge(&p, LeftEdgeOptions::default()),
                route_three_layer(&p),
            ) else {
                continue;
            };
            assert!(
                three.tracks_used <= two.tracks_used,
                "3-layer {} vs 2-layer {}",
                three.tracks_used,
                two.tracks_used
            );
            // Lower bound: ceil(density / 2).
            assert!(three.tracks_used >= p.density().div_ceil(2));
        }
    }

    #[test]
    fn emitted_geometry_validates_electrically() {
        use crate::geometry::ChannelFrame;
        use ocr_geom::{Coord, Layer, Point, Rect};
        use ocr_netlist::{Layout, NetClass, RoutedDesign};

        let p = ChannelProblem::from_ids(&[1, 2, 0, 3, 0], &[0, 0, 1, 2, 3]);
        let three = route_three_layer(&p).expect("routes");
        let pitch: Coord = 10;
        let y_top = ChannelFrame::required_height(three.tracks_used.max(1), pitch);
        let frame = |h_layer| ChannelFrame {
            col_x: (0..p.width()).map(|c| c as Coord * pitch).collect(),
            y_bottom: 0,
            y_top,
            pitch,
            h_layer,
            v_layer: Layer::Metal2,
        };
        let routes = emit_three_layer(&three, &frame(Layer::Metal1)).expect("emits");
        let die = Rect::new(-pitch, 0, p.width() as Coord * pitch, y_top);
        let mut layout = Layout::new(die);
        let mut map = std::collections::BTreeMap::new();
        for n in p.nets() {
            map.insert(n, layout.add_net(format!("n{}", n.0), NetClass::Signal));
        }
        for c in 0..p.width() {
            if let Some(n) = p.top(c) {
                layout.add_pin(
                    map[&n],
                    None,
                    Point::new(c as Coord * pitch, y_top),
                    Layer::Metal2,
                );
            }
            if let Some(n) = p.bottom(c) {
                layout.add_pin(
                    map[&n],
                    None,
                    Point::new(c as Coord * pitch, 0),
                    Layer::Metal2,
                );
            }
        }
        let mut design = RoutedDesign::new(die, layout.nets.len());
        for (n, r) in routes {
            design.set_route(map[&n], r);
        }
        let report = ocr_verify::verify(&layout, &design);
        assert!(report.is_clean(), "{report}");
    }
}
