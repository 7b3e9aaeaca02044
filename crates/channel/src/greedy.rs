//! A greedy column-sweep channel router in the style of Rivest and
//! Fiduccia ("A 'greedy' channel router", DAC 1982) — the basis of the
//! three-layer router of Bruell and Sun cited by the paper.
//!
//! The router sweeps the channel left to right. At each column it
//! (1) brings the column's pins onto tracks, (2) collapses nets that
//! occupy several tracks with a vertical jog when the column is clear,
//! and (3) retires nets whose last pin has been passed. Unlike the
//! left-edge router it never fails on vertical constraint cycles — pins
//! enter on fresh tracks whenever their net's tracks are unreachable —
//! at the cost of extra tracks and, occasionally, columns appended past
//! the right channel end to finish collapsing split nets.

use crate::error::ChannelError;
use crate::geometry::{ChannelPlan, HWire, VEnd, VWire};
use crate::ChannelProblem;
use ocr_netlist::NetId;
use std::collections::BTreeMap;

/// Options for [`route_greedy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyOptions {
    /// Hard limit on tracks (router errors beyond it). Defaults to
    /// `3 · density + 8` when `None`.
    pub track_budget: Option<usize>,
    /// Maximum columns appended past the channel end to finish split
    /// nets.
    pub max_extension: usize,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            track_budget: None,
            max_extension: 64,
        }
    }
}

/// Result of the greedy router: the plan plus the effective width
/// (greater than the problem width when extension columns were needed).
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// The routed plan (tracks compacted to `0..tracks_used`).
    pub plan: ChannelPlan,
    /// Effective number of columns including extensions.
    pub width: usize,
}

#[derive(Clone, Copy, Debug)]
struct TrackState {
    net: Option<NetId>,
    start: usize,
}

/// Order key of a [`VEnd`] for overlap tests (top smallest).
fn key(e: VEnd) -> i64 {
    match e {
        VEnd::TopEdge => -1,
        VEnd::Track(t) => t as i64,
        VEnd::BottomEdge => i64::MAX,
    }
}

/// Routes `problem` with the greedy column sweep.
///
/// # Errors
///
/// * [`ChannelError::SinglePinNet`] for malformed problems;
/// * [`ChannelError::TrackBudgetExceeded`] if the sweep needs more
///   simultaneous tracks than the budget allows;
/// * [`ChannelError::PlanConflict`] if split nets cannot be collapsed
///   within `max_extension` extra columns.
pub fn route_greedy(
    problem: &ChannelProblem,
    opts: GreedyOptions,
) -> Result<GreedyResult, ChannelError> {
    if let Some(&bad) = problem.audit().first() {
        return Err(ChannelError::SinglePinNet(bad));
    }
    let budget = opts
        .track_budget
        .unwrap_or_else(|| 3 * problem.density() + 8);

    let mut tracks: Vec<TrackState> = vec![
        TrackState {
            net: None,
            start: 0
        };
        budget
    ];
    let mut h_out: Vec<HWire> = Vec::new();
    let mut v_out: Vec<VWire> = Vec::new();
    let mut max_track_used: Option<usize> = None;

    let mut last_pin_col: BTreeMap<NetId, usize> = BTreeMap::new();
    for net in problem.nets() {
        if let Some((_, hi)) = problem.net_span(net) {
            last_pin_col.insert(net, hi);
        }
    }

    let tracks_of = |tracks: &[TrackState], net: NetId| -> Vec<usize> {
        tracks
            .iter()
            .enumerate()
            .filter_map(|(t, s)| (s.net == Some(net)).then_some(t))
            .collect()
    };

    let width = problem.width();
    let mut col = 0usize;
    let mut effective_width = width;
    loop {
        let in_channel = col < width;
        let (top, bottom) = if in_channel {
            (problem.top(col), problem.bottom(col))
        } else {
            (None, None)
        };
        // Occupied vertical ranges in this column, as (lo_key, hi_key).
        let mut vcol: Vec<(i64, i64)> = Vec::new();
        let add_range = |vcol: &mut Vec<(i64, i64)>, a: i64, b: i64| {
            vcol.push((a.min(b), a.max(b)));
        };
        let range_free = |vcol: &[(i64, i64)], a: i64, b: i64| {
            let (lo, hi) = (a.min(b), a.max(b));
            vcol.iter().all(|&(l, h)| hi <= l || h <= lo)
        };

        if let (Some(net), true) = (top, top == bottom) {
            // Straight-through connection of one net across the column.
            v_out.push(VWire::new(net, col, VEnd::TopEdge, VEnd::BottomEdge));
            add_range(&mut vcol, key(VEnd::TopEdge), key(VEnd::BottomEdge));
            // If the net continues past this column it must hold a track
            // so its trunk crosses the full-height wire here (otherwise
            // later pins would start a disconnected component).
            let continues = last_pin_col.get(&net).is_some_and(|&lp| lp > col);
            if continues && tracks_of(&tracks, net).is_empty() {
                let Some(t) = (0..budget).find(|&t| tracks[t].net.is_none()) else {
                    return Err(ChannelError::TrackBudgetExceeded { budget });
                };
                tracks[t] = TrackState {
                    net: Some(net),
                    start: col,
                };
                max_track_used = Some(max_track_used.map_or(t, |m: usize| m.max(t)));
            }
        } else if top.is_some() || bottom.is_some() {
            // Candidate target tracks for a pin: the net's existing
            // tracks first (nearest the pin's edge first), then empty
            // tracks (nearest the edge first). `None` entries mean "no
            // pin on this side".
            let candidates = |net: Option<NetId>, from_top: bool| -> Vec<Option<usize>> {
                let Some(net) = net else { return vec![None] };
                let mut existing = tracks_of(&tracks, net);
                let mut empties: Vec<usize> =
                    (0..budget).filter(|&t| tracks[t].net.is_none()).collect();
                if !from_top {
                    existing.reverse();
                    empties.reverse();
                }
                existing.into_iter().chain(empties).map(Some).collect()
            };
            // Jointly pick (top target, bottom target) so the two entry
            // wires cannot overlap: the top wire spans [TopEdge, t_top],
            // the bottom wire [t_bot, BottomEdge], requiring
            // t_top < t_bot.
            let top_cands = candidates(top, true);
            let bot_cands = candidates(bottom, false);
            let mut picked: Option<(Option<usize>, Option<usize>)> = None;
            'outer: for &tc in &top_cands {
                for &bc in &bot_cands {
                    let ok = match (tc, bc) {
                        (Some(tt), Some(bt)) => tt < bt,
                        _ => true,
                    };
                    if ok {
                        picked = Some((tc, bc));
                        break 'outer;
                    }
                }
            }
            let Some((top_target, bot_target)) = picked else {
                return Err(ChannelError::TrackBudgetExceeded { budget });
            };
            for (net, target, edge) in [
                (top, top_target, VEnd::TopEdge),
                (bottom, bot_target, VEnd::BottomEdge),
            ] {
                let (Some(net), Some(t)) = (net, target) else {
                    continue;
                };
                if tracks[t].net.is_none() {
                    tracks[t] = TrackState {
                        net: Some(net),
                        start: col,
                    };
                    max_track_used = Some(max_track_used.map_or(t, |m: usize| m.max(t)));
                }
                v_out.push(VWire::new(net, col, edge, VEnd::Track(t)));
                add_range(&mut vcol, key(edge), t as i64);
            }
        }

        // Collapse split nets where the column is clear.
        let split_nets: Vec<NetId> = {
            let mut seen: BTreeMap<NetId, usize> = BTreeMap::new();
            for s in &tracks {
                if let Some(n) = s.net {
                    *seen.entry(n).or_insert(0) += 1;
                }
            }
            seen.into_iter()
                .filter_map(|(n, c)| (c >= 2).then_some(n))
                .collect()
        };
        for net in split_nets {
            loop {
                let held = tracks_of(&tracks, net);
                if held.len() < 2 {
                    break;
                }
                // Try to join the two closest tracks.
                let pair = held
                    .windows(2)
                    .min_by_key(|w| w[1] - w[0])
                    .map(|w| (w[0], w[1]));
                let Some((t1, t2)) = pair else { break };
                if !range_free(&vcol, t1 as i64, t2 as i64) {
                    break;
                }
                v_out.push(VWire::new(net, col, VEnd::Track(t1), VEnd::Track(t2)));
                add_range(&mut vcol, t1 as i64, t2 as i64);
                // Retire the track farther from the net's remaining pins;
                // keep it simple: retire the lower one (t2).
                h_out.push(HWire {
                    net,
                    track: t2,
                    lo: tracks[t2].start,
                    hi: col,
                });
                tracks[t2].net = None;
            }
        }

        // Retire nets whose last pin has passed and that sit on a single
        // track.
        for t in 0..budget {
            let Some(net) = tracks[t].net else { continue };
            let done = last_pin_col.get(&net).map(|&lp| col >= lp).unwrap_or(true);
            if done && tracks_of(&tracks, net).len() == 1 {
                h_out.push(HWire {
                    net,
                    track: t,
                    lo: tracks[t].start,
                    hi: col,
                });
                tracks[t].net = None;
            }
        }

        col += 1;
        if col >= width {
            let any_live = tracks.iter().any(|s| s.net.is_some());
            if !any_live {
                effective_width = effective_width.max(col);
                break;
            }
            if col >= width + opts.max_extension {
                return Err(ChannelError::PlanConflict(format!(
                    "split nets not collapsible within {} extension columns",
                    opts.max_extension
                )));
            }
            effective_width = effective_width.max(col + 1);
        }
    }

    // Compact track indices, preserving top-down order.
    let used: Vec<usize> = {
        let mut u: Vec<usize> = h_out.iter().map(|h| h.track).collect();
        u.extend(v_out.iter().flat_map(|v| {
            [v.a, v.b].into_iter().filter_map(|e| match e {
                VEnd::Track(t) => Some(t),
                _ => None,
            })
        }));
        u.sort_unstable();
        u.dedup();
        u
    };
    let remap = |t: usize| used.binary_search(&t).expect("used track");
    for h in &mut h_out {
        h.track = remap(h.track);
    }
    for v in &mut v_out {
        if let VEnd::Track(t) = v.a {
            v.a = VEnd::Track(remap(t));
        }
        if let VEnd::Track(t) = v.b {
            v.b = VEnd::Track(remap(t));
        }
    }

    let plan = ChannelPlan {
        tracks_used: used.len(),
        h_wires: h_out,
        v_wires: v_out,
    };
    plan.audit()?;
    Ok(GreedyResult {
        plan,
        width: effective_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{emit_channel, ChannelFrame};
    use ocr_geom::{Coord, Layer};
    use ocr_geom::{Point, Rect};
    use ocr_netlist::{Layout, NetClass, NetRoute, RoutedDesign};

    fn route_and_emit(top: &[u32], bottom: &[u32]) -> (GreedyResult, BTreeMapRoutes) {
        let p = ChannelProblem::from_ids(top, bottom);
        let res = route_greedy(&p, GreedyOptions::default()).expect("greedy routes");
        let pitch: Coord = 10;
        let frame = ChannelFrame {
            col_x: (0..res.width).map(|c| c as Coord * pitch).collect(),
            y_bottom: 0,
            y_top: ChannelFrame::required_height(res.plan.tracks_used.max(1), pitch),
            pitch,
            h_layer: Layer::Metal1,
            v_layer: Layer::Metal2,
        };
        let routes = emit_channel(&res.plan, &frame).expect("emits");
        (res, routes)
    }
    type BTreeMapRoutes = BTreeMap<NetId, NetRoute>;

    /// Full electrical check: build a layout with pins at the channel
    /// edges and validate the emitted routes.
    fn assert_connected(top: &[u32], bottom: &[u32]) {
        let p = ChannelProblem::from_ids(top, bottom);
        let (res, routes) = route_and_emit(top, bottom);
        let pitch: Coord = 10;
        let y_top = ChannelFrame::required_height(res.plan.tracks_used.max(1), pitch);
        let die = Rect::new(-(pitch), 0, (res.width as Coord) * pitch + pitch, y_top);
        let mut layout = Layout::new(die);
        let mut net_map: BTreeMap<NetId, ocr_netlist::NetId> = BTreeMap::new();
        for n in p.nets() {
            let id = layout.add_net(format!("n{}", n.0), NetClass::Signal);
            net_map.insert(n, id);
        }
        for c in 0..p.width() {
            if let Some(n) = p.top(c) {
                layout.add_pin(
                    net_map[&n],
                    None,
                    Point::new(c as Coord * pitch, y_top),
                    Layer::Metal2,
                );
            }
            if let Some(n) = p.bottom(c) {
                layout.add_pin(
                    net_map[&n],
                    None,
                    Point::new(c as Coord * pitch, 0),
                    Layer::Metal2,
                );
            }
        }
        let mut design = RoutedDesign::new(die, layout.nets.len());
        for (n, r) in routes {
            design.set_route(net_map[&n], r);
        }
        let report = ocr_verify::verify(&layout, &design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn routes_simple_two_net_channel() {
        assert_connected(&[1, 2, 0, 0], &[0, 0, 1, 2]);
    }

    #[test]
    fn handles_crossing_cycle_without_failing() {
        // The crossing pattern that is cyclic for the left-edge router.
        assert_connected(&[1, 2], &[2, 1]);
    }

    #[test]
    fn straight_through_column() {
        assert_connected(&[3, 1, 0], &[3, 0, 1]);
    }

    #[test]
    fn multi_pin_net_connects_everywhere() {
        assert_connected(&[1, 0, 1, 0, 1], &[0, 1, 0, 1, 0]);
    }

    #[test]
    fn dense_channel_respects_density_bound() {
        let p = ChannelProblem::from_ids(&[1, 2, 3, 0, 0, 0], &[0, 0, 0, 1, 2, 3]);
        let res = route_greedy(&p, GreedyOptions::default()).expect("routes");
        assert!(res.plan.tracks_used >= p.density());
        assert_connected(&[1, 2, 3, 0, 0, 0], &[0, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn track_budget_is_enforced() {
        let p = ChannelProblem::from_ids(&[1, 2, 3, 0, 0, 0], &[0, 0, 0, 1, 2, 3]);
        let err = route_greedy(
            &p,
            GreedyOptions {
                track_budget: Some(1),
                max_extension: 4,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChannelError::TrackBudgetExceeded { .. }));
    }

    #[test]
    fn interleaved_pins_route_cleanly() {
        assert_connected(&[1, 2, 1, 2, 1], &[2, 1, 2, 1, 2]);
    }
}
