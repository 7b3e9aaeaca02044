//! Net partitioning into sets A (channel) and B (over-cell).
//!
//! Paper §2: "The set of network interconnections is initially
//! partitioned into two sets, A and B. … Control of propagation delays
//! may dictate this net partitioning process such that local
//! interconnections are included in set A, while long distance
//! interconnections are routed in level B … Alternatively, either set A
//! or set B may be used exclusively for control nets, critical nets, or
//! power and ground nets. If total layout area is a priority, layout
//! area allocated for channels can be controlled through the net
//! partitioning process" — down to eliminating channels entirely
//! ([`PartitionStrategy::AllB`]).
//!
//! Whole nets are assigned to one set; multi-terminal nets never split
//! across sets (paper §2's terminal rule depends on this).

use crate::error::RouteError;
use ocr_netlist::{Layout, NetClass, NetId};

/// How to split the net list into sets A and B.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionStrategy {
    /// The paper's experimental setting: "critical nets and timing nets
    /// were routed in level A, while all other nets were routed in
    /// level B".
    ByClass,
    /// Everything over-cell: "channel areas can be eliminated and the
    /// entire set of interconnections can be routed in level B".
    AllB,
    /// Everything through channels (the two-layer baseline's view).
    AllA,
    /// Area-budgeted: nets go to A (in criticality order) only while no
    /// channel's estimated density exceeds the budget — the paper's
    /// "layout area allocated for channels can be controlled through
    /// the net partitioning process". Resolved by the flow, which has
    /// the placement (see [`partition_nets_area_budget`]).
    AreaBudget {
        /// Maximum estimated tracks per channel.
        max_tracks_per_channel: usize,
    },
}

/// Partitions every routable net of `layout` into `(set_a, set_b)`.
///
/// # Errors
///
/// [`RouteError::PartitionNeedsPlacement`] for
/// [`PartitionStrategy::AreaBudget`], which can only be resolved with a
/// placement — use [`partition_nets_area_budget`] (the flows do).
pub fn partition_nets(
    layout: &Layout,
    strategy: &PartitionStrategy,
) -> Result<(Vec<NetId>, Vec<NetId>), RouteError> {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for net in layout.net_ids() {
        if layout.net(net).pin_count() < 2 {
            continue;
        }
        let to_a = match strategy {
            PartitionStrategy::ByClass => {
                let class = layout.net(net).class;
                class.is_level_a_default() || class == NetClass::Power
            }
            PartitionStrategy::AllB => false,
            PartitionStrategy::AllA => true,
            PartitionStrategy::AreaBudget { .. } => {
                return Err(RouteError::PartitionNeedsPlacement)
            }
        };
        if to_a {
            a.push(net);
        } else {
            b.push(net);
        }
    }
    Ok((a, b))
}

/// Area-budgeted partitioning — the paper's "if total layout area is a
/// priority, layout area allocated for channels can be controlled
/// through the net partitioning process".
///
/// Nets are considered in the given priority order (e.g. criticality);
/// a net goes to set A only while every channel's estimated density
/// stays within `max_tracks_per_channel`. Everything else goes over-cell
/// to set B. With a budget of 0 this degenerates to
/// [`PartitionStrategy::AllB`] ("channel areas can be eliminated").
///
/// The density estimate is the classic one: a net with pins in a channel
/// adds one to every column of its pin span there; nets spanning several
/// channels also consume one corridor-side column per crossed boundary
/// (approximated as +1 density on their outermost span columns).
///
/// Pins that no channel can reach (mid-cell-edge pins) disqualify a net
/// from set A.
pub fn partition_nets_area_budget(
    layout: &Layout,
    placement: &ocr_netlist::RowPlacement,
    max_tracks_per_channel: usize,
    priority: &[NetId],
) -> (Vec<NetId>, Vec<NetId>) {
    let n_channels = placement.channel_count();
    let pitch = layout.rules.channel_pitch_level_a().max(1);
    let ncols = (layout.die.width() / pitch) as usize + 1;
    let mut density = vec![vec![0usize; ncols]; n_channels];

    // (channel, column) of a pin, or None if unreachable.
    let locate = |pin: &ocr_netlist::Pin| -> Option<(usize, usize)> {
        let col = ((pin.position.x - layout.die.x0()) / pitch) as usize;
        let col = col.min(ncols - 1);
        match pin.cell {
            Some(cid) => {
                let r = placement.row_of_cell(cid)?;
                let row = &placement.rows[r];
                if pin.position.y == row.y1() {
                    Some((r + 1, col))
                } else if pin.position.y == row.y0 {
                    Some((r, col))
                } else {
                    None
                }
            }
            None => {
                if pin.position.y == layout.die.y0() {
                    Some((0, col))
                } else if pin.position.y == layout.die.y1() {
                    Some((n_channels - 1, col))
                } else {
                    None
                }
            }
        }
    };

    let mut a = Vec::new();
    let mut b = Vec::new();
    let ordered: Vec<NetId> = {
        let mut v: Vec<NetId> = priority.to_vec();
        for net in layout.net_ids() {
            if !v.contains(&net) {
                v.push(net);
            }
        }
        v
    };
    for net in ordered {
        if layout.net(net).pin_count() < 2 {
            continue;
        }
        // Per-channel pin column spans.
        let mut spans: std::collections::BTreeMap<usize, (usize, usize)> =
            std::collections::BTreeMap::new();
        let mut reachable = true;
        for &pid in &layout.net(net).pins {
            match locate(layout.pin(pid)) {
                Some((ch, col)) => {
                    let e = spans.entry(ch).or_insert((col, col));
                    e.0 = e.0.min(col);
                    e.1 = e.1.max(col);
                }
                None => {
                    reachable = false;
                    break;
                }
            }
        }
        if !reachable || spans.is_empty() {
            b.push(net);
            continue;
        }
        // Would adding this net keep every touched channel within budget?
        let fits = spans.iter().all(|(&ch, &(lo, hi))| {
            density[ch][lo..=hi]
                .iter()
                .all(|&d| d < max_tracks_per_channel)
        });
        if fits {
            for (&ch, &(lo, hi)) in &spans {
                for d in &mut density[ch][lo..=hi] {
                    *d += 1;
                }
            }
            a.push(net);
        } else {
            b.push(net);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Coord, Layer, Point, Rect};

    fn layout() -> (Layout, Vec<NetId>) {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        let mut mk = |name: &str, class: NetClass, span: Coord| {
            let n = l.add_net(name, class);
            l.add_pin(n, None, Point::new(0, 0), Layer::Metal2);
            l.add_pin(n, None, Point::new(span, 0), Layer::Metal2);
            n
        };
        let sig_short = mk("s1", NetClass::Signal, 50);
        let sig_long = mk("s2", NetClass::Signal, 900);
        let crit = mk("c", NetClass::Critical, 400);
        let pwr = mk("p", NetClass::Power, 800);
        (l, vec![sig_short, sig_long, crit, pwr])
    }

    #[test]
    fn by_class_sends_critical_and_power_to_a() {
        let (l, nets) = layout();
        let (a, b) = partition_nets(&l, &PartitionStrategy::ByClass).expect("partition");
        assert_eq!(a, vec![nets[2], nets[3]]);
        assert_eq!(b, vec![nets[0], nets[1]]);
    }

    #[test]
    fn all_b_and_all_a_are_total() {
        let (l, nets) = layout();
        let (a, b) = partition_nets(&l, &PartitionStrategy::AllB).expect("partition");
        assert!(a.is_empty());
        assert_eq!(b.len(), nets.len());
        let (a2, b2) = partition_nets(&l, &PartitionStrategy::AllA).expect("partition");
        assert_eq!(a2.len(), nets.len());
        assert!(b2.is_empty());
    }

    fn budget_chip() -> (Layout, ocr_netlist::RowPlacement, Vec<NetId>) {
        use ocr_netlist::Row;
        let mut l = Layout::new(Rect::new(0, 0, 300, 200));
        let c0 = l.add_cell("a", Rect::new(30, 30, 270, 80));
        let c1 = l.add_cell("b", Rect::new(30, 120, 270, 170));
        let mut nets = Vec::new();
        // Three fully overlapping local nets in the middle channel.
        for k in 0..3i64 {
            let n = l.add_net(format!("n{k}"), NetClass::Signal);
            l.add_pin(n, Some(c0), Point::new(60 + 6 * k, 80), Layer::Metal2);
            l.add_pin(n, Some(c1), Point::new(240 - 6 * k, 120), Layer::Metal2);
            nets.push(n);
        }
        let p = ocr_netlist::RowPlacement::new(
            vec![
                Row {
                    y0: 30,
                    height: 50,
                    cells: vec![c0],
                },
                Row {
                    y0: 120,
                    height: 50,
                    cells: vec![c1],
                },
            ],
            30,
            30,
        );
        (l, p, nets)
    }

    #[test]
    fn area_budget_caps_channel_density() {
        let (l, p, nets) = budget_chip();
        // Budget 2: only two of the three overlapping nets fit in set A.
        let (a, b) = partition_nets_area_budget(&l, &p, 2, &nets);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        // Priority order decides which ones.
        assert_eq!(a, vec![nets[0], nets[1]]);
    }

    #[test]
    fn zero_budget_is_all_b() {
        let (l, p, nets) = budget_chip();
        let (a, b) = partition_nets_area_budget(&l, &p, 0, &nets);
        assert!(a.is_empty());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn large_budget_is_all_a() {
        let (l, p, nets) = budget_chip();
        let (a, b) = partition_nets_area_budget(&l, &p, 100, &nets);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        let _ = nets;
    }

    #[test]
    fn unreachable_pins_force_set_b() {
        let (mut l, p, _) = budget_chip();
        // A pin on a cell's side edge cannot enter any channel.
        let n = l.add_net("side", NetClass::Signal);
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(0)),
            Point::new(30, 50),
            Layer::Metal2,
        );
        l.add_pin(
            n,
            Some(ocr_netlist::CellId(1)),
            Point::new(240, 120),
            Layer::Metal2,
        );
        let (a, b) = partition_nets_area_budget(&l, &p, 100, &[]);
        assert!(!a.contains(&n));
        assert!(b.contains(&n));
    }

    #[test]
    fn area_budget_without_placement_is_a_typed_error() {
        let (l, _) = layout();
        let err = partition_nets(
            &l,
            &PartitionStrategy::AreaBudget {
                max_tracks_per_channel: 4,
            },
        )
        .expect_err("needs a placement");
        assert_eq!(err, RouteError::PartitionNeedsPlacement);
    }

    #[test]
    fn single_pin_nets_are_dropped() {
        let (mut l, _) = layout();
        let lonely = l.add_net("x", NetClass::Signal);
        l.add_pin(lonely, None, Point::new(5, 5), Layer::Metal1);
        let (a, b) = partition_nets(&l, &PartitionStrategy::AllB).expect("partition");
        assert!(!a.contains(&lonely) && !b.contains(&lonely));
    }
}
