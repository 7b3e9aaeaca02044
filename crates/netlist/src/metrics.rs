//! Routing-quality metrics: layout area, wire length, via count, corners.
//!
//! These are exactly the three comparison metrics of the paper's Table 2
//! ("overall layout area, total wire length and total number of vias")
//! plus the corner count the Level B router optimizes ("the quality of
//! the resulting routing is measured in terms of total number of net
//! directional changes and total wire length").

use crate::{Layout, NetId, RoutedDesign};
use ocr_geom::Coord;
use std::fmt;

/// Aggregate metrics of one routed design.
///
/// Via accounting follows the paper's terminal rule: a via stack sitting
/// exactly on a net terminal realizes the "final connection … through
/// intervening routing layers" that the terminal's landing pad is
/// designed to accommodate, so it is counted separately
/// ([`RouteMetrics::terminal_via_cuts`]) from the routing vias the
/// tables compare ([`RouteMetrics::vias`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteMetrics {
    /// Final layout area (die area after channel expansion), DBU².
    pub layout_area: i128,
    /// Total Manhattan wire length across all nets, DBU.
    pub wire_length: Coord,
    /// Routing via cuts (corners, doglegs, trunk junctions) — the
    /// "number of vias" of the paper's tables.
    pub vias: usize,
    /// Via cuts in terminal stacks (at net terminal positions).
    pub terminal_via_cuts: usize,
    /// Total number of direction changes over all nets.
    pub corners: usize,
    /// Number of nets with a route.
    pub routed_nets: usize,
    /// Number of nets the flow failed on.
    pub failed_nets: usize,
}

impl RouteMetrics {
    /// Computes metrics for `design`, using `layout` to distinguish
    /// terminal via stacks from routing vias.
    pub fn of(design: &RoutedDesign, layout: &Layout) -> Self {
        let mut m = RouteMetrics {
            layout_area: design.die.area(),
            ..RouteMetrics::default()
        };
        for (net, route) in design.iter_routes() {
            m.wire_length += route.wire_length();
            m.corners += route.corner_count();
            m.routed_nets += 1;
            for via in &route.vias {
                let at_pin = layout
                    .net(net)
                    .pins
                    .iter()
                    .any(|&p| layout.pin(p).position == via.at);
                if at_pin {
                    m.terminal_via_cuts += via.cuts();
                } else {
                    m.vias += via.cuts();
                }
            }
        }
        m.failed_nets = design.failed.len();
        m
    }

    /// Percent reduction of `self` relative to a `baseline` metric value,
    /// `100 · (baseline − ours) / baseline`. Returns 0 for a zero
    /// baseline.
    pub fn percent_reduction(baseline: f64, ours: f64) -> f64 {
        if baseline == 0.0 {
            0.0
        } else {
            100.0 * (baseline - ours) / baseline
        }
    }

    /// Percent reductions (area, wire length, vias) of `self` vs
    /// `baseline` — one Table 2 row.
    pub fn reductions_vs(&self, baseline: &RouteMetrics) -> MetricReductions {
        MetricReductions {
            layout_area: Self::percent_reduction(
                baseline.layout_area as f64,
                self.layout_area as f64,
            ),
            wire_length: Self::percent_reduction(
                baseline.wire_length as f64,
                self.wire_length as f64,
            ),
            vias: Self::percent_reduction(baseline.vias as f64, self.vias as f64),
        }
    }
}

impl fmt::Display for RouteMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "area={} wl={} vias={} corners={} routed={} failed={}",
            self.layout_area,
            self.wire_length,
            self.vias,
            self.corners,
            self.routed_nets,
            self.failed_nets
        )
    }
}

/// One row of the paper's Table 2: percent reductions of the proposed
/// flow relative to a baseline flow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricReductions {
    /// Percent reduction in layout area.
    pub layout_area: f64,
    /// Percent reduction in total wire length.
    pub wire_length: f64,
    /// Percent reduction in via count.
    pub vias: f64,
}

impl fmt::Display for MetricReductions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "area {:+.1}%, wire length {:+.1}%, vias {:+.1}%",
            self.layout_area, self.wire_length, self.vias
        )
    }
}

/// Per-benchmark statistics in the shape of the paper's Table 1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChipMetrics {
    /// Example name.
    pub name: String,
    /// Number of macro-cells.
    pub cells: usize,
    /// Number of nets.
    pub nets: usize,
    /// Total number of pins.
    pub pins: usize,
    /// Number of nets assigned to Level A.
    pub level_a_nets: usize,
    /// Average pins per Level A net.
    pub level_a_avg_pins: f64,
}

impl ChipMetrics {
    /// Gathers Table 1 statistics for `layout` given the ids of the nets
    /// partitioned into set A.
    pub fn of(name: impl Into<String>, layout: &Layout, level_a: &[NetId]) -> Self {
        let a_pins: usize = level_a.iter().map(|&n| layout.net(n).pin_count()).sum();
        ChipMetrics {
            name: name.into(),
            cells: layout.cells.len(),
            nets: layout.nets.len(),
            pins: layout.total_pins(),
            level_a_nets: level_a.len(),
            level_a_avg_pins: if level_a.is_empty() {
                0.0
            } else {
                a_pins as f64 / level_a.len() as f64
            },
        }
    }
}

impl fmt::Display for ChipMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cells, {} nets, {} pins; level A: {} nets ({:.2} pins/net)",
            self.name, self.cells, self.nets, self.pins, self.level_a_nets, self.level_a_avg_pins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetClass, NetRoute, RouteSeg, Via};
    use ocr_geom::{Layer, Point, Rect};

    #[test]
    fn metrics_sum_over_routes_and_split_terminal_stacks() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 50));
        let n0 = l.add_net("n0", NetClass::Signal);
        l.add_pin(n0, None, Point::new(0, 0), Layer::Metal2);
        l.add_pin(n0, None, Point::new(10, 0), Layer::Metal2);
        let n1 = l.add_net("n1", NetClass::Signal);
        l.add_pin(n1, None, Point::new(0, 5), Layer::Metal2);
        l.add_pin(n1, None, Point::new(0, 25), Layer::Metal2);
        let mut d = RoutedDesign::new(l.die, 2);
        let mut r0 = NetRoute::new();
        r0.segs.push(RouteSeg::new(
            Point::new(0, 0),
            Point::new(10, 0),
            Layer::Metal3,
        ));
        // Routing via away from any pin.
        r0.vias
            .push(Via::new(Point::new(5, 0), Layer::Metal3, Layer::Metal4));
        // Terminal stack at the pin.
        r0.vias
            .push(Via::new(Point::new(10, 0), Layer::Metal2, Layer::Metal4));
        d.set_route(NetId(0), r0);
        let mut r1 = NetRoute::new();
        r1.segs.push(RouteSeg::new(
            Point::new(0, 5),
            Point::new(0, 25),
            Layer::Metal4,
        ));
        d.set_route(NetId(1), r1);
        let m = RouteMetrics::of(&d, &l);
        assert_eq!(m.layout_area, 5000);
        assert_eq!(m.wire_length, 30);
        assert_eq!(m.vias, 1, "only the mid-wire via is a routing via");
        assert_eq!(m.terminal_via_cuts, 2, "the M2–M4 stack at the pin");
        assert_eq!(m.corners, 1);
        assert_eq!(m.routed_nets, 2);
    }

    #[test]
    fn percent_reduction_formula() {
        assert_eq!(RouteMetrics::percent_reduction(200.0, 150.0), 25.0);
        assert_eq!(RouteMetrics::percent_reduction(0.0, 10.0), 0.0);
        assert!(RouteMetrics::percent_reduction(100.0, 120.0) < 0.0);
    }

    #[test]
    fn chip_metrics_level_a_average() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        let n0 = l.add_net("a", NetClass::Critical);
        let n1 = l.add_net("b", NetClass::Signal);
        for i in 0..4 {
            l.add_pin(n0, None, Point::new(i, 0), Layer::Metal1);
        }
        for i in 0..2 {
            l.add_pin(n1, None, Point::new(i, 5), Layer::Metal1);
        }
        let m = ChipMetrics::of("t", &l, &[n0]);
        assert_eq!(m.level_a_nets, 1);
        assert_eq!(m.level_a_avg_pins, 4.0);
        assert_eq!(m.pins, 6);
    }
}
