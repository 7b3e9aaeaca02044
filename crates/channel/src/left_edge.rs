//! Constrained left-edge channel router with doglegs.
//!
//! This is the "existing channel routing package" role of the paper's
//! Level A: a classic two-layer router in the Yoshimura–Kuh tradition —
//! vertical constraint graph, dogleg splitting at internal pins, and
//! greedy left-edge track filling from the top of the channel downward.
//! Vertical constraint cycles that doglegging cannot break are resolved
//! by inserting jogs at pin-free columns.
//!
//! The router is generic over the number of horizontal lanes per track
//! (`route_lanes`): the two-layer router is the one-lane case and the
//! three-layer HVH router ([`crate::three_layer`]) is the two-lane case.

use crate::error::ChannelError;
use crate::geometry::{ChannelPlan, HWire, VEnd, VWire};
use crate::subnet::{build_subnets, is_straight_through, Subnet};
use crate::vcg::Vcg;
use crate::ChannelProblem;
use ocr_netlist::NetId;
use std::collections::BTreeMap;

/// Options for [`route_left_edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeftEdgeOptions {
    /// Split nets at internal pin columns (Deutsch dogleg). Strongly
    /// recommended: without it many problems are cyclic.
    pub dogleg: bool,
    /// Break residual VCG cycles by inserting jogs at pin-free columns.
    pub break_cycles: bool,
}

impl Default for LeftEdgeOptions {
    fn default() -> Self {
        LeftEdgeOptions {
            dogleg: true,
            break_cycles: true,
        }
    }
}

/// Routes `problem` with the constrained left-edge algorithm.
///
/// Returns a [`ChannelPlan`] ready for geometry emission. This is
/// `route_lanes` with one lane.
///
/// # Errors
///
/// * [`ChannelError::SinglePinNet`] if a net has fewer than two pins;
/// * [`ChannelError::UnbreakableCycle`] if a vertical constraint cycle
///   survives doglegging and jog insertion (or cycle breaking was
///   disabled).
pub fn route_left_edge(
    problem: &ChannelProblem,
    opts: LeftEdgeOptions,
) -> Result<ChannelPlan, ChannelError> {
    route_lanes::<1>(problem, opts).map(|[plan]| plan)
}

/// Routes `problem` with the constrained left-edge algorithm over `N`
/// horizontal lanes per track, returning one plan per lane.
///
/// Each track `y` carries up to `N` trunks, one per horizontal layer,
/// because same-`y` trunks on different layers never short. All lanes
/// share the one vertical layer, so every branch goes to lane 0's plan
/// and two subnets related in the vertical constraint graph may not
/// share a track even across lanes. With `N = 1` that rule never
/// rejects a subnet the lane check accepts: VCG edges only join
/// different nets whose spans share a column, and a lane only accepts
/// a subnet that starts past its last trunk (or touches it on the same
/// net). [`route_left_edge`] is `N = 1`; the three-layer router is
/// `N = 2`.
///
/// # Errors
///
/// Same as [`route_left_edge`].
pub(crate) fn route_lanes<const N: usize>(
    problem: &ChannelProblem,
    opts: LeftEdgeOptions,
) -> Result<[ChannelPlan; N], ChannelError> {
    if let Some(&bad) = problem.audit().first() {
        return Err(ChannelError::SinglePinNet(bad));
    }

    let mut subnets = build_subnets(problem, opts.dogleg);
    let mut jog_cols: Vec<usize> = Vec::new();

    // Break vertical constraint cycles by splitting a cycle member at a
    // pin-free column, bounded by the channel width (each split consumes
    // a distinct column).
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

    // Constrained left-edge: fill tracks top-down; a subnet may enter the
    // current track (in any lane) only when everything that must be above
    // it is already on a strictly higher track and nothing VCG-related to
    // it sits on this track.
    let n = subnets.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (subnets[i].lo, subnets[i].hi, subnets[i].net.0));
    let mut placement: Vec<Option<(usize, usize)>> = vec![None; n]; // (track, lane)
    let mut placed = 0usize;
    let mut track = 0usize;
    while placed < n {
        let mut lane_last: [Option<(usize, NetId)>; N] = [None; N]; // (col, net)
        let mut on_this_track: Vec<usize> = Vec::new();
        for &i in &order {
            if placement[i].is_some() {
                continue;
            }
            let s = &subnets[i];
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
            let lane = (0..N).find(|&l| match lane_last[l] {
                None => true,
                Some((hi, net)) => s.lo > hi || (s.lo == hi && s.net == net),
            });
            let Some(lane) = lane else { continue };
            placement[i] = Some((track, lane));
            lane_last[lane] = Some((s.hi, s.net));
            on_this_track.push(i);
            placed += 1;
        }
        if on_this_track.is_empty() {
            // With an acyclic VCG a source subnet always fits on an empty
            // track, so this is unreachable; guard anyway.
            let nets = (0..n)
                .filter(|&i| placement[i].is_none())
                .map(|i| subnets[i].net)
                .collect();
            return Err(ChannelError::UnbreakableCycle(nets));
        }
        track += 1;
    }
    let tracks_used = track;
    let track_of = |i: usize| placement[i].expect("all subnets placed").0;

    let mut plans: [ChannelPlan; N] = std::array::from_fn(|_| ChannelPlan {
        tracks_used,
        ..ChannelPlan::default()
    });

    // Horizontal trunks: merge same-lane, same-net, same-track touching
    // subnets.
    let mut by_key: BTreeMap<(usize, NetId, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (i, s) in subnets.iter().enumerate() {
        let (t, lane) = placement[i].expect("all subnets placed");
        by_key
            .entry((lane, s.net, t))
            .or_default()
            .push((s.lo, s.hi));
    }
    for ((lane, net, t), mut spans) in by_key {
        spans.sort_unstable();
        let h_wires = &mut plans[lane].h_wires;
        let mut cur = spans[0];
        for &(lo, hi) in &spans[1..] {
            if lo <= cur.1 {
                cur.1 = cur.1.max(hi);
            } else {
                h_wires.push(HWire {
                    net,
                    track: t,
                    lo: cur.0,
                    hi: cur.1,
                });
                cur = (lo, hi);
            }
        }
        h_wires.push(HWire {
            net,
            track: t,
            lo: cur.0,
            hi: cur.1,
        });
    }

    // Vertical branches, all in lane 0's plan: at every connection column
    // of each net (pins, plus subnet endpoints, which include the
    // cycle-break jog columns), span from the topmost to the bottommost
    // end among pin edges and covering trunks of any lane.
    let v_wires = &mut plans[0].v_wires;
    for net in problem.nets() {
        let mut cols = problem.pin_columns(net);
        for s in subnets.iter().filter(|s| s.net == net) {
            cols.push(s.lo);
            cols.push(s.hi);
        }
        cols.sort_unstable();
        cols.dedup();
        if is_straight_through(problem, net) {
            v_wires.push(VWire::new(net, cols[0], VEnd::TopEdge, VEnd::BottomEdge));
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
                    ends.push(VEnd::Track(track_of(i)));
                }
            }
            ends.sort();
            ends.dedup();
            if ends.len() >= 2 {
                let a = ends[0];
                let b = *ends.last().expect("non-empty");
                v_wires.push(VWire::new(net, c, a, b));
            }
        }
    }
    Ok(plans)
}

/// Number of tracks the left-edge router uses for `problem`, or an error.
/// Convenience wrapper used by area estimators.
pub fn left_edge_track_count(
    problem: &ChannelProblem,
    opts: LeftEdgeOptions,
) -> Result<usize, ChannelError> {
    route_left_edge(problem, opts).map(|p| p.tracks_used)
}

/// Routes a channel with the left-edge router at its default options
/// (doglegs and cycle-breaking jogs on), falling back to the
/// greedy column-sweep router when an unbreakable vertical constraint
/// cycle remains (the greedy router resolves cycles with fresh tracks
/// instead of jogs, at some track-count cost). The fallback is rejected
/// if it would need columns beyond the channel width.
pub fn route_channel_robust(problem: &ChannelProblem) -> Result<ChannelPlan, ChannelError> {
    match route_left_edge(problem, LeftEdgeOptions::default()) {
        Ok(plan) => Ok(plan),
        Err(ChannelError::UnbreakableCycle(_)) => {
            let res =
                crate::greedy::route_greedy(problem, crate::greedy::GreedyOptions::default())?;
            if res.width > problem.width() {
                return Err(ChannelError::PlanConflict(format!(
                    "greedy fallback needed {} columns, channel has {}",
                    res.width,
                    problem.width()
                )));
            }
            Ok(res.plan)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{emit_channel, ChannelFrame};
    use ocr_geom::{Coord, Layer};

    fn frame(width: usize, tracks: usize) -> ChannelFrame {
        let pitch: Coord = 10;
        ChannelFrame {
            col_x: (0..width).map(|c| c as Coord * pitch).collect(),
            y_bottom: 0,
            y_top: ChannelFrame::required_height(tracks, pitch),
            pitch,
            h_layer: Layer::Metal1,
            v_layer: Layer::Metal2,
        }
    }

    fn route_ok(top: &[u32], bottom: &[u32]) -> ChannelPlan {
        let p = ChannelProblem::from_ids(top, bottom);
        let plan = route_left_edge(&p, LeftEdgeOptions::default()).expect("routes");
        // Geometry must emit cleanly (includes the physical audit).
        emit_channel(&plan, &frame(p.width(), plan.tracks_used.max(1))).expect("emits");
        plan
    }

    #[test]
    fn single_net_uses_one_track() {
        let plan = route_ok(&[1, 0, 0], &[0, 0, 1]);
        assert_eq!(plan.tracks_used, 1);
    }

    #[test]
    fn disjoint_nets_share_a_track() {
        let plan = route_ok(&[1, 1, 0, 2, 2], &[0, 0, 0, 0, 0]);
        assert_eq!(plan.tracks_used, 1);
    }

    #[test]
    fn overlapping_nets_need_two_tracks() {
        let plan = route_ok(&[1, 2, 0, 0], &[0, 0, 1, 2]);
        assert_eq!(plan.tracks_used, 2);
    }

    #[test]
    fn respects_vertical_constraints() {
        // Column 0: net 1 top, net 2 bottom → net 1's trunk above net 2's.
        let p = ChannelProblem::from_ids(&[1, 1, 0], &[2, 0, 2]);
        let plan = route_left_edge(&p, LeftEdgeOptions::default()).expect("routes");
        let t1 = plan
            .h_wires
            .iter()
            .find(|h| h.net == NetId(1))
            .expect("net1 trunk")
            .track;
        let t2 = plan
            .h_wires
            .iter()
            .find(|h| h.net == NetId(2))
            .expect("net2 trunk")
            .track;
        assert!(
            t1 < t2,
            "net 1 (track {t1}) must be above net 2 (track {t2})"
        );
    }

    #[test]
    fn breaks_two_terminal_crossing_cycle_with_jog() {
        // 1 top/2 bottom at col 0; 2 top/1 bottom at col 3; pin-free
        // columns 1–2 available for the jog.
        let plan = route_ok(&[1, 0, 0, 2], &[2, 0, 0, 1]);
        assert!(plan.tracks_used >= 2);
    }

    #[test]
    fn unbreakable_cycle_is_reported() {
        // Adjacent crossing with no free column between the pins.
        let p = ChannelProblem::from_ids(&[1, 2], &[2, 1]);
        let err = route_left_edge(&p, LeftEdgeOptions::default()).unwrap_err();
        assert!(matches!(err, ChannelError::UnbreakableCycle(_)));
    }

    #[test]
    fn cycle_breaking_can_be_disabled() {
        let p = ChannelProblem::from_ids(&[1, 0, 2], &[2, 0, 1]);
        let err = route_left_edge(
            &p,
            LeftEdgeOptions {
                dogleg: true,
                break_cycles: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChannelError::UnbreakableCycle(_)));
    }

    #[test]
    fn dogleg_reduces_tracks_on_classic_example() {
        // Deutsch-style example where doglegging helps:
        // net 1 pins at columns 0 (top), 2 (bottom), 4 (top);
        // nets 2 and 3 fill around it.
        let top = &[1, 2, 0, 3, 1];
        let bottom = &[2, 0, 1, 0, 3];
        let p = ChannelProblem::from_ids(top, bottom);
        let with = route_left_edge(&p, LeftEdgeOptions::default()).expect("dogleg routes");
        let without = route_left_edge(
            &p,
            LeftEdgeOptions {
                dogleg: false,
                break_cycles: true,
            },
        );
        // Without doglegs the instance may simply be cyclic; when it
        // routes, doglegging must not be worse.
        if let Ok(plan) = without {
            assert!(with.tracks_used <= plan.tracks_used);
        }
    }

    #[test]
    fn straight_through_net_takes_no_track() {
        let plan = route_ok(&[5, 1, 0], &[5, 0, 1]);
        assert_eq!(plan.tracks_used, 1); // only net 1 needs a track
        assert!(plan
            .v_wires
            .iter()
            .any(|v| v.net == NetId(5) && v.a == VEnd::TopEdge && v.b == VEnd::BottomEdge));
    }

    #[test]
    fn track_count_at_least_density() {
        let p = ChannelProblem::from_ids(&[1, 2, 3, 0, 0, 0], &[0, 0, 0, 1, 2, 3]);
        let plan = route_left_edge(&p, LeftEdgeOptions::default()).expect("routes");
        assert!(plan.tracks_used >= p.density());
    }

    #[test]
    fn multi_pin_net_with_doglegs_emits_connected_plan() {
        // Net 1 zig-zags: top 0, bottom 2, top 4; crossing net 2.
        let plan = route_ok(&[1, 0, 2, 0, 1], &[0, 2, 1, 0, 0]);
        let n1_trunks: Vec<_> = plan.h_wires.iter().filter(|h| h.net == NetId(1)).collect();
        assert!(!n1_trunks.is_empty());
    }
}
