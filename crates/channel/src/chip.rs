//! Chip-level channel routing: carve channels from a row placement,
//! route every channel, expand the die vertically to fit the tracks, and
//! stitch nets that span several channels through cell-free corridors at
//! the die edges.
//!
//! This module plays two roles in the reproduction:
//!
//! * **Level A** of the proposed methodology — routing the selected net
//!   subset in between-cell channels on metal1/metal2, after which "the
//!   final dimensions of the layout and the location of the net
//!   terminals are known" (paper §2);
//! * the **baseline flows** of Tables 2 and 3 — routing *all* nets
//!   through channels with two layers, or with four layers via the
//!   layer-pair decomposition of [`crate::multilayer`].

use crate::error::ChannelError;
use crate::geometry::{emit_channel, ChannelFrame, ChannelPlan};
use crate::left_edge::route_channel_robust;
use crate::multilayer::{route_four_layer, FourLayerPlan};
use crate::three_layer::{emit_three_layer, route_three_layer, ThreeLayerPlan};
use crate::ChannelProblem;
use ocr_geom::{Coord, Layer, Point, Rect};
use ocr_netlist::{Layout, NetId, NetRoute, PinId, RouteSeg, RoutedDesign, RowPlacement, Via};
use std::collections::BTreeMap;

/// One channel's routing outcome: the plan plus its track count and
/// required height (`None` when the halting fan-out never claimed it).
type ChannelOutcome = Option<Result<(RoutedChannel, usize, Coord), ChannelError>>;

/// Which channel router the chip flow uses. Every router runs the
/// left-edge lanes with the default
/// [`LeftEdgeOptions`](crate::LeftEdgeOptions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChannelRouterKind {
    /// Two-layer constrained left-edge (metal1/metal2).
    #[default]
    TwoLayer,
    /// Three-layer HVH two-lane left-edge (metal1/metal2/metal3).
    ThreeLayer,
    /// Four-layer HV+HV decomposition (metal1–metal4).
    FourLayer,
}

/// Options for [`route_chip_channels`]. Columns are laid out at the
/// Level A channel pitch of the layout's design rules.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChipChannelOptions {
    /// The channel router to use.
    pub router: ChannelRouterKind,
}

/// Result of chip-level channel routing.
#[derive(Clone, Debug)]
pub struct ChipChannelResult {
    /// Routed geometry in expanded absolute coordinates. The route slots
    /// cover *all* nets of the layout; only the requested nets are
    /// filled.
    pub design: RoutedDesign,
    /// The layout with cells, pins, obstacles and die moved to their
    /// post-expansion positions (the paper's "fixed topology" handed to
    /// Level B).
    pub expanded: Layout,
    /// The placement with expanded row positions and margins.
    pub placement: RowPlacement,
    /// Per-channel track counts (max over pairs for the 4-layer router).
    pub channel_tracks: Vec<usize>,
    /// Per-channel final heights.
    pub channel_heights: Vec<Coord>,
}

/// Which edge of a channel a pin enters from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Top,
    Bottom,
}

/// Per-channel routed plans.
enum RoutedChannel {
    Empty,
    Two(ChannelPlan),
    Three(ThreeLayerPlan),
    Four(FourLayerPlan),
}

/// Routes the given nets through the placement's channels.
///
/// See the module documentation for the model. The layout's x extent may
/// grow (corridor margins) and every channel's height is set to what its
/// routing needs, so cells, pins and the die all move; the returned
/// [`ChipChannelResult::expanded`] layout reflects the final topology.
///
/// # Errors
///
/// Returns a [`ChannelError`] for malformed placements, off-grid or
/// unreachable pins, corridor overflow, or channel routing failures.
pub fn route_chip_channels(
    layout: &Layout,
    placement: &RowPlacement,
    nets: &[NetId],
    opts: ChipChannelOptions,
) -> Result<ChipChannelResult, ChannelError> {
    let audit = placement.audit(layout);
    if !audit.is_empty() {
        return Err(ChannelError::PlanConflict(format!(
            "placement audit failed: {}",
            audit.join("; ")
        )));
    }
    let pitch = layout.rules.channel_pitch_level_a();
    let rows = &placement.rows;
    let n_channels = placement.channel_count();

    // ---- 1. Classify every pin of every requested net -----------------
    // (net, pin, channel, side, original x) per pin.
    let mut pin_entries: Vec<(NetId, PinId, usize, Side, Coord)> = Vec::new();
    for &net in nets {
        for &pid in &layout.net(net).pins {
            let pin = layout.pin(pid);
            let (channel, side) = match pin.cell {
                Some(cid) => {
                    let r = placement
                        .row_of_cell(cid)
                        .ok_or(ChannelError::UnreachablePin(net))?;
                    let row = &rows[r];
                    if pin.position.y == row.y1() {
                        (r + 1, Side::Bottom)
                    } else if pin.position.y == row.y0 {
                        (r, Side::Top)
                    } else {
                        return Err(ChannelError::UnreachablePin(net));
                    }
                }
                None => {
                    if pin.position.y == layout.die.y0() {
                        (0, Side::Bottom)
                    } else if pin.position.y == layout.die.y1() {
                        (n_channels - 1, Side::Top)
                    } else {
                        return Err(ChannelError::UnreachablePin(net));
                    }
                }
            };
            // Pads must stay clear of the corridor margins.
            if pin.cell.is_none()
                && (pin.position.x < layout.die.x0() + placement.left_margin
                    || pin.position.x > layout.die.x1() - placement.right_margin)
            {
                return Err(ChannelError::UnreachablePin(net));
            }
            pin_entries.push((net, pid, channel, side, pin.position.x));
        }
    }

    // ---- 2. Multi-channel nets and corridor sizing ---------------------
    let mut channels_of: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
    let mut avg_x: BTreeMap<NetId, (i128, usize)> = BTreeMap::new();
    for &(net, _, ch, _, x) in &pin_entries {
        let e = channels_of.entry(net).or_default();
        if !e.contains(&ch) {
            e.push(ch);
        }
        let a = avg_x.entry(net).or_insert((0, 0));
        a.0 += x as i128;
        a.1 += 1;
    }
    for chs in channels_of.values_mut() {
        chs.sort_unstable();
    }
    let center = (layout.die.x0() + layout.die.x1()) / 2;
    let mut left_nets: Vec<NetId> = Vec::new();
    let mut right_nets: Vec<NetId> = Vec::new();
    for (&net, chs) in &channels_of {
        if chs.len() < 2 {
            continue;
        }
        let (sum, cnt) = avg_x[&net];
        if (sum / cnt as i128) < center as i128 {
            left_nets.push(net);
        } else {
            right_nets.push(net);
        }
    }
    // Corridor columns are *shared*: nets whose channel spans are
    // separated by at least one channel can stack in the same column
    // (first-fit interval packing, optimal for interval graphs). This
    // keeps corridor width proportional to the peak number of nets
    // crossing any row boundary, not to the net count.
    let pack_columns = |nets: &[NetId]| -> (usize, BTreeMap<NetId, usize>) {
        let mut spans: Vec<(usize, usize, NetId)> = nets
            .iter()
            .map(|&n| {
                let chs = &channels_of[&n];
                (
                    *chs.first().expect("multi-channel"),
                    *chs.last().expect("multi-channel"),
                    n,
                )
            })
            .collect();
        spans.sort();
        let mut last_hi: Vec<usize> = Vec::new(); // per column
        let mut assignment = BTreeMap::new();
        for (lo, hi, n) in spans {
            let slot = last_hi.iter().position(|&h| h + 1 < lo);
            let k = match slot {
                Some(k) => {
                    last_hi[k] = hi;
                    k
                }
                None => {
                    last_hi.push(hi);
                    last_hi.len() - 1
                }
            };
            assignment.insert(n, k);
        }
        (last_hi.len(), assignment)
    };
    let (n_left_cols, left_assign) = pack_columns(&left_nets);
    let (n_right_cols, right_assign) = pack_columns(&right_nets);
    let need_left = (n_left_cols as Coord + 2) * pitch;
    let need_right = (n_right_cols as Coord + 2) * pitch;
    let new_left_margin = placement.left_margin.max(need_left);
    let new_right_margin = placement.right_margin.max(need_right);
    let delta_left = new_left_margin - placement.left_margin;
    let delta_right = new_right_margin - placement.right_margin;

    // ---- 3. Final x frame ----------------------------------------------
    let x0 = layout.die.x0();
    let x1 = layout.die.x1() + delta_left + delta_right;
    let ncols = ((x1 - x0) / pitch) as usize + 1;
    let col_x: Vec<Coord> = (0..ncols).map(|k| x0 + k as Coord * pitch).collect();
    let col_of = |x: Coord| -> Result<usize, ()> {
        let shifted = x - x0;
        if shifted % pitch == 0 && shifted >= 0 && (shifted / pitch) < ncols as Coord {
            Ok((shifted / pitch) as usize)
        } else {
            Err(())
        }
    };
    // Corridor column allocation: left packed columns at 1.., right
    // packed columns inward from ncols-2.
    let mut corridor_col: BTreeMap<NetId, usize> = BTreeMap::new();
    for (&net, &k) in &left_assign {
        corridor_col.insert(net, k + 1);
    }
    for (&net, &k) in &right_assign {
        if ncols < k + 3 {
            return Err(ChannelError::CorridorOverflow {
                needed: n_right_cols,
                available: ncols.saturating_sub(2),
            });
        }
        corridor_col.insert(net, ncols - 2 - k);
    }

    // ---- 4. Per-channel pin rows ---------------------------------------
    let mut top_rows: Vec<Vec<Option<NetId>>> = vec![vec![None; ncols]; n_channels];
    let mut bot_rows: Vec<Vec<Option<NetId>>> = vec![vec![None; ncols]; n_channels];
    for &(net, _, ch, side, x) in &pin_entries {
        let x_new = x + delta_left;
        let c = col_of(x_new).map_err(|_| ChannelError::OffGridPin(net))?;
        let slot = match side {
            Side::Top => &mut top_rows[ch][c],
            Side::Bottom => &mut bot_rows[ch][c],
        };
        match slot {
            Some(existing) if *existing != net => {
                return Err(ChannelError::PinCollision {
                    channel: ch,
                    column: c,
                    nets: (*existing, net),
                });
            }
            _ => *slot = Some(net),
        }
    }
    // Pseudo-pins at corridor columns.
    for (&net, chs) in &channels_of {
        if chs.len() < 2 {
            continue;
        }
        let cc = corridor_col[&net];
        let (lowest, highest) = (*chs.first().expect("≥2"), *chs.last().expect("≥2"));
        for &ch in chs {
            if ch != lowest {
                if bot_rows[ch][cc].is_some() {
                    return Err(ChannelError::PinCollision {
                        channel: ch,
                        column: cc,
                        nets: (bot_rows[ch][cc].expect("some"), net),
                    });
                }
                bot_rows[ch][cc] = Some(net);
            }
            if ch != highest {
                if top_rows[ch][cc].is_some() {
                    return Err(ChannelError::PinCollision {
                        channel: ch,
                        column: cc,
                        nets: (top_rows[ch][cc].expect("some"), net),
                    });
                }
                top_rows[ch][cc] = Some(net);
            }
        }
    }

    // ---- 5. Route each channel ------------------------------------------
    // Channels are independent once the frames are cut, so they fan out
    // across the ocr-exec pool. Results merge in channel-index order
    // (the halting map preserves input order), and on failure the error
    // of the lowest-indexed failing channel is returned — exactly what a
    // sequential loop would report — so parallel runs stay bit-identical
    // to `OCR_THREADS=1` runs. The fan-out cooperates with the ambient
    // run control: once it trips the remaining channels are never
    // claimed, and because every channel's height feeds the vertical
    // expansion below, a hole anywhere abandons the whole stage as
    // `Interrupted` rather than emitting partial geometry.
    let pitch_three = layout.rules.channel_pitch_three_layer();
    let pitch_upper = layout.rules.over_cell_pitch();
    let channel_indices: Vec<usize> = (0..n_channels).collect();
    let per_channel: Vec<ChannelOutcome> =
        ocr_exec::parallel_map_halting(&channel_indices, |&ch| {
            // One span per channel; aggregates under a single name so
            // the `--stats` table shows channel count and total time.
            let _span = ocr_obs::span("level_a.channel");
            let problem = ChannelProblem::new(top_rows[ch].clone(), bot_rows[ch].clone());
            if problem.nets().is_empty() {
                return Ok((RoutedChannel::Empty, 0, pitch));
            }
            match opts.router {
                ChannelRouterKind::TwoLayer => {
                    let plan = route_channel_robust(&problem)?;
                    let tracks = plan.tracks_used;
                    let height = ChannelFrame::required_height(tracks, pitch);
                    Ok((RoutedChannel::Two(plan), tracks, height))
                }
                ChannelRouterKind::ThreeLayer => {
                    let plan = route_three_layer(&problem)?;
                    let tracks = plan.tracks_used;
                    let height = ChannelFrame::required_height(tracks, pitch_three);
                    Ok((RoutedChannel::Three(plan), tracks, height))
                }
                ChannelRouterKind::FourLayer => {
                    let plan = route_four_layer(&problem)?;
                    let tracks = plan.max_tracks();
                    let height = ChannelFrame::required_height(plan.lower.tracks_used, pitch).max(
                        ChannelFrame::required_height(plan.upper.tracks_used, pitch_upper),
                    );
                    Ok((RoutedChannel::Four(plan), tracks, height))
                }
            }
        });
    let mut routed: Vec<RoutedChannel> = Vec::with_capacity(n_channels);
    let mut channel_tracks = Vec::with_capacity(n_channels);
    let mut channel_heights = Vec::with_capacity(n_channels);
    for result in per_channel {
        let (plan, tracks, height) = result.ok_or(ChannelError::Interrupted)??;
        routed.push(plan);
        channel_tracks.push(tracks);
        channel_heights.push(height);
    }

    // ---- 6. Vertical expansion -------------------------------------------
    // Original bands, bottom-up: channel 0, row 0, channel 1, …, channel N.
    let mut old_bounds: Vec<(Coord, Coord)> = Vec::new(); // (lo, hi) per band
    let mut is_channel: Vec<bool> = Vec::new();
    {
        let mut cursor = layout.die.y0();
        for (r, row) in rows.iter().enumerate() {
            old_bounds.push((cursor, row.y0));
            is_channel.push(true);
            old_bounds.push((row.y0, row.y1()));
            is_channel.push(false);
            cursor = row.y1();
            let _ = r;
        }
        old_bounds.push((cursor, layout.die.y1()));
        is_channel.push(true);
    }
    let mut new_bounds: Vec<(Coord, Coord)> = Vec::with_capacity(old_bounds.len());
    {
        let mut cursor = layout.die.y0();
        let mut ch = 0usize;
        for (bi, &(lo, hi)) in old_bounds.iter().enumerate() {
            let h = if is_channel[bi] {
                let h = channel_heights[ch];
                ch += 1;
                h
            } else {
                hi - lo
            };
            new_bounds.push((cursor, cursor + h));
            cursor += h;
        }
    }
    let map_y = |y: Coord| -> Coord {
        for (bi, &(lo, hi)) in old_bounds.iter().enumerate() {
            let last = bi + 1 == old_bounds.len();
            if (y >= lo && y < hi) || (last && y <= hi) || (y == lo) {
                let (nlo, nhi) = new_bounds[bi];
                if hi == lo {
                    return nlo;
                }
                return nlo + (y - lo) * (nhi - nlo) / (hi - lo);
            }
        }
        // Below the die: clamp.
        new_bounds.first().map(|b| b.0).unwrap_or(y)
    };

    // ---- 7. Expanded layout ------------------------------------------------
    let mut expanded = layout.clone();
    let new_die = Rect::new(
        x0,
        layout.die.y0(),
        x1,
        new_bounds.last().map(|b| b.1).unwrap_or(layout.die.y1()),
    );
    expanded.die = new_die;
    for cell in &mut expanded.cells {
        let o = cell.outline;
        cell.outline = Rect::new(
            o.x0() + delta_left,
            map_y(o.y0()),
            o.x1() + delta_left,
            map_y(o.y1()),
        );
    }
    for pin in &mut expanded.pins {
        pin.position = Point::new(pin.position.x + delta_left, map_y(pin.position.y));
    }
    for ob in &mut expanded.obstacles {
        let r = ob.rect;
        ob.rect = Rect::new(
            r.x0() + delta_left,
            map_y(r.y0()),
            r.x1() + delta_left,
            map_y(r.y1()),
        );
    }
    let new_placement = RowPlacement::new(
        rows.iter()
            .map(|r| ocr_netlist::Row {
                y0: map_y(r.y0),
                height: r.height,
                cells: r.cells.clone(),
            })
            .collect(),
        new_left_margin,
        new_right_margin,
    );

    // ---- 8. Geometry emission -----------------------------------------------
    let channel_band = |ch: usize| new_bounds[ch * 2];
    let mut design = RoutedDesign::new(new_die, layout.nets.len());
    let mut per_net: BTreeMap<NetId, NetRoute> = BTreeMap::new();
    for (ch, routed_ch) in routed.iter().enumerate() {
        let (y_bottom, y_top) = channel_band(ch);
        let frame = |pitch, h_layer, v_layer| ChannelFrame {
            col_x: col_x.clone(),
            y_bottom,
            y_top,
            pitch,
            h_layer,
            v_layer,
        };
        let lower = |pitch| frame(pitch, Layer::Metal1, Layer::Metal2);
        let emitted = match routed_ch {
            RoutedChannel::Empty => continue,
            RoutedChannel::Two(plan) => emit_channel(plan, &lower(pitch))?,
            RoutedChannel::Three(plan) => emit_three_layer(plan, &lower(pitch_three))?,
            RoutedChannel::Four(plan) => {
                let mut routes = emit_channel(&plan.lower, &lower(pitch))?;
                let upper = frame(pitch_upper, Layer::Metal3, Layer::Metal4);
                for (net, route) in emit_channel(&plan.upper, &upper)? {
                    routes.entry(net).or_default().extend(route);
                }
                routes
            }
        };
        for (net, route) in emitted {
            per_net.entry(net).or_default().extend(route);
        }
    }

    // ---- 9. Corridor wires -----------------------------------------------
    for (&net, chs) in &channels_of {
        if chs.len() < 2 {
            continue;
        }
        let cc = corridor_col[&net];
        let x = col_x[cc];
        let route = per_net.entry(net).or_default();
        for w in chs.windows(2) {
            let (_, from_top) = channel_band(w[0]);
            let (to_bottom, _) = channel_band(w[1]);
            route.segs.push(RouteSeg::new(
                Point::new(x, from_top),
                Point::new(x, to_bottom),
                Layer::Metal2,
            ));
        }
        // If the net's in-channel branches run on metal4 (upper pair of
        // the 4-layer router), stitch the metal2 corridor to them.
        for &ch in chs.iter() {
            if let RoutedChannel::Four(plan) = &routed[ch] {
                if plan.pair_of(net) == Some(true) {
                    let (y_bottom, y_top) = channel_band(ch);
                    let (lowest, highest) = (*chs.first().expect("≥2"), *chs.last().expect("≥2"));
                    if ch != highest {
                        route.vias.push(Via::new(
                            Point::new(x, y_top),
                            Layer::Metal2,
                            Layer::Metal4,
                        ));
                    }
                    if ch != lowest {
                        route.vias.push(Via::new(
                            Point::new(x, y_bottom),
                            Layer::Metal2,
                            Layer::Metal4,
                        ));
                    }
                }
            }
        }
    }

    // ---- 10. Terminal vias ---------------------------------------------------
    // Every requested net gets an entry, so one left without wiring is
    // marked failed below.
    for &net in nets {
        per_net.entry(net).or_default();
    }
    for &(net, pid, ch, _, _) in &pin_entries {
        let pin = expanded.pin(pid);
        // Which vertical layer reaches this pin?
        let v_layer = match &routed[ch] {
            RoutedChannel::Four(plan) if plan.pair_of(net) == Some(true) => Layer::Metal4,
            _ => Layer::Metal2,
        };
        if pin.layer != v_layer {
            let via = Via::new(pin.position, pin.layer, v_layer);
            per_net.entry(net).or_default().vias.push(via);
        }
    }

    for (net, route) in per_net {
        if !route.is_empty() {
            design.set_route(net, route);
        } else {
            design.set_failed(net);
        }
    }

    Ok(ChipChannelResult {
        design,
        expanded,
        placement: new_placement,
        channel_tracks,
        channel_heights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::Layer;
    use ocr_netlist::{DesignRules, LayerRules, NetClass, Row};

    /// Uniform rules whose channel pitch is 10, the fixtures' pin grid.
    fn pitch_10_rules() -> DesignRules {
        DesignRules::uniform(LayerRules {
            wire_width: 5,
            wire_spacing: 5,
            via_size: 5,
        })
    }

    /// Two rows of one cell each; pins on facing edges; a local net in
    /// the middle channel and a multi-channel net from bottom channel to
    /// top channel.
    fn two_row_chip() -> (Layout, RowPlacement, Vec<NetId>) {
        let mut l = Layout::new(Rect::new(0, 0, 400, 300));
        l.rules = pitch_10_rules();
        let c0 = l.add_cell("r0", Rect::new(40, 40, 360, 100));
        let c1 = l.add_cell("r1", Rect::new(40, 180, 360, 240));
        // Local net in channel 1 (between rows): pins on c0 top and c1
        // bottom.
        let n_local = l.add_net("local", NetClass::Signal);
        l.add_pin(n_local, Some(c0), Point::new(100, 100), Layer::Metal2);
        l.add_pin(n_local, Some(c1), Point::new(200, 180), Layer::Metal2);
        // Multi-channel net: pin on c0 bottom (channel 0) and c1 top
        // (channel 2).
        let n_span = l.add_net("span", NetClass::Signal);
        l.add_pin(n_span, Some(c0), Point::new(120, 40), Layer::Metal2);
        l.add_pin(n_span, Some(c1), Point::new(220, 240), Layer::Metal2);
        let placement = RowPlacement::new(
            vec![
                Row {
                    y0: 40,
                    height: 60,
                    cells: vec![c0],
                },
                Row {
                    y0: 180,
                    height: 60,
                    cells: vec![c1],
                },
            ],
            40,
            40,
        );
        (l, placement, vec![n_local, n_span])
    }

    #[test]
    fn routes_two_row_chip_and_validates() {
        let (l, p, nets) = two_row_chip();
        let res =
            route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).expect("chip routes");
        // Both nets routed.
        assert_eq!(res.design.routed_count(), 2);
        assert!(res.design.failed.is_empty());
        // The oracle on the *expanded* layout must be clean.
        let report = ocr_verify::verify(&res.expanded, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn channels_expand_to_fit_tracks() {
        let (l, p, nets) = two_row_chip();
        let res =
            route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).expect("chip routes");
        assert_eq!(res.channel_heights.len(), 3);
        for (t, h) in res.channel_tracks.iter().zip(&res.channel_heights) {
            if *t > 0 {
                assert!(*h >= ChannelFrame::required_height(*t, 6));
            }
        }
        // Die grows (or shrinks) consistently with the bands.
        let total: Coord = res.channel_heights.iter().sum::<Coord>()
            + p.rows.iter().map(|r| r.height).sum::<Coord>();
        assert_eq!(res.expanded.die.height(), total);
    }

    #[test]
    fn four_layer_router_also_validates() {
        let (l, p, nets) = two_row_chip();
        let res = route_chip_channels(
            &l,
            &p,
            &nets,
            ChipChannelOptions {
                router: ChannelRouterKind::FourLayer,
            },
        )
        .expect("chip routes");
        let report = ocr_verify::verify(&res.expanded, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn off_grid_pin_is_reported() {
        let (mut l, p, mut nets) = two_row_chip();
        let n = l.add_net("bad", NetClass::Signal);
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(0)),
            Point::new(101, 100),
            Layer::Metal2,
        );
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(1)),
            Point::new(207, 180),
            Layer::Metal2,
        );
        nets.push(n);
        let err = route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).unwrap_err();
        assert!(matches!(err, ChannelError::OffGridPin(_)));
    }

    #[test]
    fn side_pin_is_unreachable() {
        let (mut l, p, mut nets) = two_row_chip();
        let n = l.add_net("side", NetClass::Signal);
        // Pin on the left edge of cell 0 (mid-height): unreachable.
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(0)),
            Point::new(40, 70),
            Layer::Metal2,
        );
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(1)),
            Point::new(200, 240),
            Layer::Metal2,
        );
        nets.push(n);
        let err = route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).unwrap_err();
        assert!(matches!(err, ChannelError::UnreachablePin(_)));
    }

    #[test]
    fn pad_pins_route_through_outer_channels() {
        let (mut l, p, mut nets) = two_row_chip();
        // A net from a bottom-edge pad to the first row's bottom edge.
        let n = l.add_net("pad", NetClass::Signal);
        l.add_pin(n, None, Point::new(200, 0), Layer::Metal2);
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(0)),
            Point::new(160, 40),
            Layer::Metal2,
        );
        nets.push(n);
        let res =
            route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).expect("routes");
        assert!(res.design.route(n).is_some());
        let report = ocr_verify::verify(&res.expanded, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn pad_in_corridor_margin_is_rejected() {
        let (mut l, p, mut nets) = two_row_chip();
        let n = l.add_net("badpad", NetClass::Signal);
        l.add_pin(n, None, Point::new(10, 0), Layer::Metal2); // inside left margin
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(0)),
            Point::new(160, 40),
            Layer::Metal2,
        );
        nets.push(n);
        let err = route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).unwrap_err();
        assert!(matches!(err, ChannelError::UnreachablePin(_)));
    }

    #[test]
    fn three_layer_chip_routing_validates() {
        let (l, p, nets) = two_row_chip();
        let res = route_chip_channels(
            &l,
            &p,
            &nets,
            ChipChannelOptions {
                router: ChannelRouterKind::ThreeLayer,
            },
        )
        .expect("routes");
        let report = ocr_verify::verify(&res.expanded, &res.design);
        assert!(report.is_clean(), "{report}");
        assert_eq!(res.design.routed_count(), 2);
    }

    /// Corridor sharing: multi-channel nets with pairwise disjoint
    /// channel spans must pack into one corridor column, keeping the
    /// margins at their original width.
    #[test]
    fn disjoint_span_corridor_nets_share_columns() {
        // Four rows -> 5 channels; nets spanning (0,1) and (3,4) have
        // disjoint spans separated by a channel and can share a column.
        let mut l = Layout::new(Rect::new(0, 0, 400, 620));
        l.rules = pitch_10_rules();
        let mut cells = Vec::new();
        let mut rows = Vec::new();
        for r in 0..4i64 {
            let y0 = 40 + r * 150;
            let c = l.add_cell(format!("r{r}"), Rect::new(40, y0, 360, y0 + 60));
            cells.push(c);
            rows.push(ocr_netlist::Row {
                y0,
                height: 60,
                cells: vec![c],
            });
        }
        let p = RowPlacement::new(rows, 40, 40);
        let mut nets = Vec::new();
        // Net spanning channels 0..1 (around row 0).
        let n0 = l.add_net("low", NetClass::Signal);
        l.add_pin(n0, Some(cells[0]), Point::new(100, 40), Layer::Metal2);
        l.add_pin(n0, Some(cells[0]), Point::new(120, 100), Layer::Metal2);
        nets.push(n0);
        // Net spanning channels 3..4 (around row 3).
        let n1 = l.add_net("high", NetClass::Signal);
        l.add_pin(n1, Some(cells[3]), Point::new(100, 490), Layer::Metal2);
        l.add_pin(n1, Some(cells[3]), Point::new(120, 550), Layer::Metal2);
        nets.push(n1);
        let res =
            route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).expect("routes");
        // Both nets are on the same side (avg x < center); spans 0..1 and
        // 3..4 are separated by channel 2 -> one shared corridor column:
        // margins must not grow beyond (1 + 2) * pitch = 30 <= 40.
        assert_eq!(res.placement.left_margin, 40, "no margin growth needed");
        let report = ocr_verify::verify(&res.expanded, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn die_shrinks_when_channels_need_little() {
        // The original placement has generous gaps; routed channels need
        // far less, so the die *shrinks* — the paper's area win depends
        // on exactly this.
        let (l, p, nets) = two_row_chip();
        let res =
            route_chip_channels(&l, &p, &nets, ChipChannelOptions::default()).expect("routes");
        assert!(
            res.expanded.die.height() < l.die.height(),
            "expanded {} vs original {}",
            res.expanded.die.height(),
            l.die.height()
        );
    }

    #[test]
    fn unrequested_nets_are_untouched() {
        let (l, p, nets) = two_row_chip();
        let only_local = vec![nets[0]];
        let res = route_chip_channels(&l, &p, &only_local, ChipChannelOptions::default())
            .expect("chip routes");
        assert_eq!(res.design.routed_count(), 1);
        assert!(res.design.route(nets[1]).is_none());
    }
}
