#![warn(missing_docs)]

//! # ocr-verify
//!
//! An **independent verification oracle** for routed designs: given a
//! [`Layout`] (nets, terminals, obstacles, design rules) and the
//! [`RoutedDesign`] some router produced for it, re-derive from the
//! emitted geometry alone whether the result is electrically and
//! physically legal. The oracle shares no code or data structures with
//! the routers — it re-extracts connectivity with a union–find over
//! centerline contact, rebuilds drawn metal shapes from the design
//! rules, and sweeps them for shorts and spacing — so a bug in a router
//! cannot silently excuse itself.
//!
//! Checks performed:
//!
//! * **Connectivity** — every multi-terminal net's pins must land in one
//!   electrical component; stray components are flagged as dangling.
//! * **Shorts** — drawn geometry of distinct nets must never overlap or
//!   touch on a layer.
//! * **Spacing** — distinct-net geometry must keep each layer's minimum
//!   spacing (Euclidean, corner-to-corner included).
//! * **Min-width** — no positive-length segment shorter than its
//!   layer's wire width (unprintable sliver).
//! * **Via landing** — every via must have same-net geometry on both of
//!   its end layers at the cut point.
//! * **Die containment** — no geometry outside the design's die.
//! * **Obstacles** — no wire through the interior of an obstacle region
//!   blocking its layer (vias are exempt: terminal stacks pass through
//!   over-cell regions by construction, per the paper).
//!
//! ```
//! use ocr_verify::verify;
//! # use ocr_geom::Rect;
//! # use ocr_netlist::{Layout, RoutedDesign};
//! # let layout = Layout::new(Rect::new(0, 0, 100, 100));
//! # let design = RoutedDesign::new(layout.die, 0);
//! let report = verify(&layout, &design);
//! assert!(report.is_clean());
//! ```

mod connectivity;
mod drc;
mod index;
mod report;
mod violation;

pub use connectivity::{analyze_net, NetConnectivity};
pub use report::{NetSummary, VerifyReport};
pub use violation::{Violation, ViolationKind};

use ocr_geom::{Layer, LayerSet, Point};
use ocr_netlist::{Layout, RoutedDesign};

/// How to model the drawn geometry. Every check always runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Layers whose geometry is expanded to full drawn widths for the
    /// short/spacing sweep. On the remaining layers wires are treated as
    /// centerlines and only contact between distinct nets is flagged.
    ///
    /// The default is the Level A layers (metal1/metal2): channels run
    /// on a uniform legal pitch, so drawn-width rules are a guarantee
    /// there. The Level B grid inserts terminal tracks off-pitch
    /// (distinct tracks may sit closer than `wire_width + wire_spacing`),
    /// so its contract is track exclusivity, not drawn spacing — use
    /// [`VerifyOptions::strict`] to check full physical rules on all
    /// four layers anyway.
    pub drawn_layers: LayerSet,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            drawn_layers: LayerSet::level_a(),
        }
    }
}

impl VerifyOptions {
    /// Full physical drawn-width rules on all four layers.
    pub fn strict() -> Self {
        VerifyOptions {
            drawn_layers: LayerSet::all(),
        }
    }
}

/// Verifies a routed design against its layout with default options.
pub fn verify(layout: &Layout, design: &RoutedDesign) -> VerifyReport {
    verify_with(layout, design, &VerifyOptions::default())
}

/// Verifies a routed design against its layout.
///
/// The layout provides nets, terminal positions, obstacle regions and
/// design rules; the design provides the (possibly grown) die and the
/// emitted geometry. Nets the router explicitly declared failed are
/// reported in the per-net summaries but produce no connectivity
/// violations — a declared failure is an honest answer, not a silent
/// defect. Their geometry, if any, still participates in every physical
/// check.
pub fn verify_with(layout: &Layout, design: &RoutedDesign, opts: &VerifyOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    {
        let _span = ocr_obs::span("verify.connectivity");
        check_connectivity(layout, design, &mut report);
    }
    {
        let _span = ocr_obs::span("verify.geometry");
        drc::check_geometry(layout, design, &mut report.violations);
    }
    {
        let _span = ocr_obs::span("verify.spacing");
        drc::check_spacing(layout, design, opts.drawn_layers, &mut report.violations);
    }
    report
}

fn check_connectivity(layout: &Layout, design: &RoutedDesign, report: &mut VerifyReport) {
    // The union–find extraction is independent per net, so nets fan out
    // across the ocr-exec pool; summaries and violations merge in net-id
    // order, keeping the report bit-identical to a sequential pass.
    let nets: Vec<_> = layout.net_ids().collect();
    let per_net: Vec<Option<(NetSummary, Vec<Violation>)>> =
        ocr_exec::parallel_map(&nets, |&net| check_net_connectivity(layout, design, net));
    for (summary, violations) in per_net.into_iter().flatten() {
        report.nets.push(summary);
        report.violations.extend(violations);
    }
}

/// Connectivity verdict for one net; `None` for nets with fewer than two
/// terminals (nothing to connect).
fn check_net_connectivity(
    layout: &Layout,
    design: &RoutedDesign,
    net: ocr_netlist::NetId,
) -> Option<(NetSummary, Vec<Violation>)> {
    let pins: Vec<(Point, Layer)> = layout.nets[net.index()]
        .pins
        .iter()
        .map(|&p| (layout.pin(p).position, layout.pin(p).layer))
        .collect();
    if pins.len() < 2 {
        return None;
    }
    let declared_failed = design.failed.contains(&net);
    let mut violations = Vec::new();
    let summary = match design.route(net) {
        None => {
            if !declared_failed {
                violations.push(Violation::MissingRoute { net });
            }
            NetSummary {
                net,
                routed: false,
                declared_failed,
                connected: false,
                components: pins.len(),
            }
        }
        Some(r) if r.is_empty() => {
            if !declared_failed {
                violations.push(Violation::EmptyRoute { net });
            }
            NetSummary {
                net,
                routed: false,
                declared_failed,
                connected: false,
                components: pins.len(),
            }
        }
        Some(r) => {
            let c = analyze_net(&pins, r);
            if !declared_failed {
                if !c.pins_connected {
                    violations.push(Violation::OpenNet {
                        net,
                        components: c.components,
                    });
                }
                for (layer, at) in c.dangling {
                    violations.push(Violation::Dangling { net, layer, at });
                }
            }
            NetSummary {
                net,
                routed: true,
                declared_failed,
                connected: c.pins_connected,
                components: c.components,
            }
        }
    };
    Some((summary, violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::Rect;
    use ocr_netlist::{NetClass, NetId, NetRoute, RouteSeg, Via};

    fn tiny_layout() -> (Layout, NetId) {
        let mut layout = Layout::new(Rect::new(0, 0, 100, 100));
        let n = layout.add_net("a", NetClass::Signal);
        layout.add_pin(n, None, Point::new(10, 10), Layer::Metal1);
        layout.add_pin(n, None, Point::new(50, 10), Layer::Metal1);
        (layout, n)
    }

    #[test]
    fn clean_single_wire_design() {
        let (layout, n) = tiny_layout();
        let mut design = RoutedDesign::new(layout.die, 1);
        let mut route = NetRoute::new();
        route.segs.push(RouteSeg::new(
            Point::new(10, 10),
            Point::new(50, 10),
            Layer::Metal1,
        ));
        design.set_route(n, route);
        let report = verify(&layout, &design);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.connected_nets(), 1);
    }

    #[test]
    fn missing_route_is_flagged_unless_declared_failed() {
        let (layout, n) = tiny_layout();
        let design = RoutedDesign::new(layout.die, 1);
        let report = verify(&layout, &design);
        assert_eq!(report.count(ViolationKind::MissingRoute), 1);

        let mut failed = RoutedDesign::new(layout.die, 1);
        failed.set_failed(n);
        let report = verify(&layout, &failed);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.failed_nets(), 1);
    }

    #[test]
    fn via_without_upper_wire_is_flagged() {
        let (layout, n) = tiny_layout();
        let mut design = RoutedDesign::new(layout.die, 1);
        let mut route = NetRoute::new();
        route.segs.push(RouteSeg::new(
            Point::new(10, 10),
            Point::new(50, 10),
            Layer::Metal1,
        ));
        route
            .vias
            .push(Via::new(Point::new(30, 10), Layer::Metal1, Layer::Metal2));
        design.set_route(n, route);
        let report = verify(&layout, &design);
        assert_eq!(report.count(ViolationKind::ViaLanding), 1);
        assert!(matches!(
            report
                .violations
                .iter()
                .find(|v| v.kind() == ViolationKind::ViaLanding),
            Some(Violation::ViaLanding {
                missing: Layer::Metal2,
                ..
            })
        ));
    }
}
