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
//! The router is the constrained left-edge algorithm with two *lanes*
//! per track; in the ideal case the track count halves relative to the
//! two-layer router — the theoretical basis for the paper's "50 %"
//! analytic model.

use crate::error::ChannelError;
use crate::geometry::{ChannelPlan, HWire, VEnd, VWire};
use crate::left_edge::LeftEdgeOptions;
use crate::subnet::{build_subnets, is_straight_through, Subnet};
use crate::vcg::Vcg;
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

/// Routes `problem` with the two-lane constrained left-edge algorithm.
///
/// # Errors
///
/// Same failure modes as [`crate::route_left_edge`]:
/// [`ChannelError::SinglePinNet`] and [`ChannelError::UnbreakableCycle`].
pub fn route_three_layer(
    problem: &ChannelProblem,
    opts: LeftEdgeOptions,
) -> Result<ThreeLayerPlan, ChannelError> {
    if let Some(&bad) = problem.audit().first() {
        return Err(ChannelError::SinglePinNet(bad));
    }

    let mut subnets = build_subnets(problem, opts.dogleg);
    let mut jog_cols: Vec<usize> = Vec::new();
    let vcg = loop {
        let vcg = Vcg::build(problem, &subnets);
        let Some(cycle) = vcg.find_cycle() else {
            break vcg;
        };
        if !opts.break_cycles {
            let nets = cycle.iter().map(|&i| subnets[i].net).collect();
            return Err(ChannelError::UnbreakableCycle(nets));
        }
        let split = cycle.iter().copied().find_map(|i| {
            let s = &subnets[i];
            (s.lo + 1..s.hi).find_map(|c| {
                let free = problem.top(c).is_none()
                    && problem.bottom(c).is_none()
                    && !jog_cols.contains(&c);
                free.then_some((i, c))
            })
        });
        let Some((i, c)) = split else {
            let nets = cycle.iter().map(|&i| subnets[i].net).collect();
            return Err(ChannelError::UnbreakableCycle(nets));
        };
        jog_cols.push(c);
        let s = subnets[i].clone();
        subnets[i] = Subnet {
            net: s.net,
            lo: s.lo,
            hi: c,
        };
        subnets.push(Subnet {
            net: s.net,
            lo: c,
            hi: s.hi,
        });
    };

    // Two-lane constrained left-edge, top-down. A subnet may enter the
    // current track (either lane) only when everything that must be
    // above it sits on a strictly higher track — same-track placement
    // of VCG-related subnets is forbidden even across lanes, because
    // both lanes share the one vertical layer.
    let n = subnets.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (subnets[i].lo, subnets[i].hi, subnets[i].net.0));
    let mut placement: Vec<Option<(usize, usize)>> = vec![None; n]; // (track, lane)
    let mut placed = 0usize;
    let mut track = 0usize;
    while placed < n {
        let mut lane_last: [Option<(usize, NetId)>; 2] = [None, None];
        let mut on_this_track: Vec<usize> = Vec::new();
        let mut placed_this_track = 0;
        for &i in &order {
            if placement[i].is_some() {
                continue;
            }
            let s = &subnets[i];
            // VCG feasibility: ancestors strictly above; and no VCG
            // relation with anything already on this track.
            let above_ok = vcg
                .above(i)
                .iter()
                .all(|&a| matches!(placement[a], Some((t, _)) if t < track));
            if !above_ok {
                continue;
            }
            let track_conflict = on_this_track
                .iter()
                .any(|&o| vcg.above(i).contains(&o) || vcg.below(i).contains(&o));
            if track_conflict {
                continue;
            }
            let lane = (0..2).find(|&l| match lane_last[l] {
                None => true,
                Some((hi, net)) => s.lo > hi || (s.lo == hi && s.net == net),
            });
            let Some(lane) = lane else { continue };
            placement[i] = Some((track, lane));
            lane_last[lane] = Some((s.hi, s.net));
            on_this_track.push(i);
            placed += 1;
            placed_this_track += 1;
        }
        if placed_this_track == 0 {
            let nets = (0..n)
                .filter(|&i| placement[i].is_none())
                .map(|i| subnets[i].net)
                .collect();
            return Err(ChannelError::UnbreakableCycle(nets));
        }
        track += 1;
    }
    let tracks_used = track;

    // Build one plan per lane; all vertical branches go to the lower
    // plan (single vertical layer).
    let mut lanes: [ChannelPlan; 2] = [
        ChannelPlan {
            tracks_used,
            ..ChannelPlan::default()
        },
        ChannelPlan {
            tracks_used,
            ..ChannelPlan::default()
        },
    ];
    let mut by_key: BTreeMap<(usize, NetId, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (i, s) in subnets.iter().enumerate() {
        let (t, lane) = placement[i].expect("placed");
        by_key
            .entry((lane, s.net, t))
            .or_default()
            .push((s.lo, s.hi));
    }
    for ((lane, net, t), mut spans) in by_key {
        spans.sort_unstable();
        let mut cur = spans[0];
        let flush = |lo: usize, hi: usize, lanes: &mut [ChannelPlan; 2]| {
            lanes[lane].h_wires.push(HWire {
                net,
                track: t,
                lo,
                hi,
            });
        };
        for &(lo, hi) in &spans[1..] {
            if lo <= cur.1 {
                cur.1 = cur.1.max(hi);
            } else {
                flush(cur.0, cur.1, &mut lanes);
                cur = (lo, hi);
            }
        }
        flush(cur.0, cur.1, &mut lanes);
    }
    // Vertical branches: per net, per connection column, spanning every
    // incident trunk (regardless of lane) plus pin edges.
    let mut conn_cols: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
    for net in problem.nets() {
        let mut cols = problem.pin_columns(net);
        for s in subnets.iter().filter(|s| s.net == net) {
            cols.push(s.lo);
            cols.push(s.hi);
        }
        cols.sort_unstable();
        cols.dedup();
        conn_cols.insert(net, cols);
    }
    for (net, cols) in conn_cols {
        if is_straight_through(problem, net) {
            lanes[0]
                .v_wires
                .push(VWire::new(net, cols[0], VEnd::TopEdge, VEnd::BottomEdge));
            continue;
        }
        for c in cols {
            let mut ends: Vec<VEnd> = Vec::new();
            if problem.top(c) == Some(net) {
                ends.push(VEnd::TopEdge);
            }
            if problem.bottom(c) == Some(net) {
                ends.push(VEnd::BottomEdge);
            }
            for (i, s) in subnets.iter().enumerate() {
                if s.net == net && s.covers(c) {
                    ends.push(VEnd::Track(placement[i].expect("placed").0));
                }
            }
            ends.sort();
            ends.dedup();
            if ends.len() >= 2 {
                let a = ends[0];
                let b = *ends.last().expect("non-empty");
                lanes[0].v_wires.push(VWire::new(net, c, a, b));
            }
        }
    }

    let [lower, upper] = lanes;
    Ok(ThreeLayerPlan {
        lower,
        upper,
        tracks_used,
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
        let three = route_three_layer(&p, LeftEdgeOptions::default()).expect("3-layer");
        assert_eq!(two.tracks_used, 2);
        assert_eq!(three.tracks_used, 1);
    }

    #[test]
    fn vcg_constrained_nets_still_stack_vertically() {
        // Column 0 forces net 1 above net 2: they cannot share a track
        // even with two lanes.
        let p = ChannelProblem::from_ids(&[1, 1, 0], &[2, 0, 2]);
        let three = route_three_layer(&p, LeftEdgeOptions::default()).expect("3-layer");
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
                route_three_layer(&p, LeftEdgeOptions::default()),
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
        let three = route_three_layer(&p, LeftEdgeOptions::default()).expect("routes");
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
