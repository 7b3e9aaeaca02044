//! Self-tests for the `ocr-verify` oracle: hand-built routed designs
//! with one injected defect each, checked to yield exactly the expected
//! violation — plus a clean design that must come back empty.

use overcell_router::geom::{Layer, LayerSet, Point, Rect};
use overcell_router::netlist::{
    Layout, NetClass, NetId, NetRoute, Obstacle, RouteSeg, RoutedDesign, Via,
};
use overcell_router::verify::{verify, Violation, ViolationKind};

/// A 200×200 die with default design rules (metal1: width 3, spacing 3).
fn base_layout() -> Layout {
    Layout::new(Rect::new(0, 0, 200, 200))
}

/// Adds a two-pin metal1 net with pins at `a` and `b`.
fn two_pin_net(layout: &mut Layout, name: &str, a: Point, b: Point) -> NetId {
    two_pin_net_on(layout, name, (a, Layer::Metal1), (b, Layer::Metal1))
}

/// Adds a two-pin net with each pin on its own layer.
fn two_pin_net_on(
    layout: &mut Layout,
    name: &str,
    (a, la): (Point, Layer),
    (b, lb): (Point, Layer),
) -> NetId {
    let n = layout.add_net(name, NetClass::Signal);
    layout.add_pin(n, None, a, la);
    layout.add_pin(n, None, b, lb);
    n
}

fn wire(a: Point, b: Point, layer: Layer) -> RouteSeg {
    RouteSeg::new(a, b, layer)
}

#[test]
fn clean_design_yields_empty_report() {
    let mut layout = base_layout();
    let n = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let mut design = RoutedDesign::new(layout.die, 1);
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal1));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert!(report.is_clean(), "{report}");
    assert!(report.violations.is_empty());
    assert_eq!(report.connected_nets(), 1);
}

#[test]
fn injected_short_is_detected() {
    let mut layout = base_layout();
    let a = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let b = two_pin_net(&mut layout, "b", Point::new(50, 2), Point::new(50, 40));
    let mut design = RoutedDesign::new(layout.die, 2);
    let mut ra = NetRoute::new();
    ra.segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal1));
    design.set_route(a, ra);
    // Net b's vertical wire crosses net a's horizontal wire at (50, 10).
    let mut rb = NetRoute::new();
    rb.segs
        .push(wire(Point::new(50, 2), Point::new(50, 40), Layer::Metal1));
    design.set_route(b, rb);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    match &report.violations[0] {
        Violation::Short {
            a: lo,
            b: hi,
            layer,
            at,
        } => {
            assert_eq!((*lo, *hi), (a, b));
            assert_eq!(*layer, Layer::Metal1);
            assert_eq!(at.x, 50, "short is on the crossing column");
        }
        other => panic!("expected a short, got {other}"),
    }
}

#[test]
fn t_junction_between_nets_is_a_short() {
    // Metal4 is checked as centerlines by default: net b's wire ends
    // exactly on net a's wire, and a shared point is contact.
    let mut layout = base_layout();
    let m4 = |x, y| (Point::new(x, y), Layer::Metal4);
    let a = two_pin_net_on(&mut layout, "a", m4(50, 0), m4(50, 80));
    let b = two_pin_net_on(&mut layout, "b", m4(20, 40), m4(50, 40));
    let mut design = RoutedDesign::new(layout.die, 2);
    let mut ra = NetRoute::new();
    ra.segs
        .push(wire(Point::new(50, 0), Point::new(50, 80), Layer::Metal4));
    design.set_route(a, ra);
    let mut rb = NetRoute::new();
    rb.segs
        .push(wire(Point::new(20, 40), Point::new(50, 40), Layer::Metal4));
    design.set_route(b, rb);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert!(
        matches!(
            report.violations[0],
            Violation::Short { a: lo, b: hi, layer: Layer::Metal4, .. } if (lo, hi) == (a, b)
        ),
        "{report}"
    );
}

#[test]
fn injected_open_net_is_detected() {
    let mut layout = base_layout();
    let n = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let mut design = RoutedDesign::new(layout.die, 1);
    // Wire stops 40 units short of the second pin.
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(50, 10), Layer::Metal1));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(
        report.violations[0],
        Violation::OpenNet {
            net: n,
            components: 2
        }
    );
    assert_eq!(report.open_nets(), 1);
}

#[test]
fn injected_sub_spacing_pair_is_detected() {
    let mut layout = base_layout();
    let a = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let b = two_pin_net(&mut layout, "b", Point::new(10, 14), Point::new(90, 14));
    let mut design = RoutedDesign::new(layout.die, 2);
    // Parallel metal1 wires 4 apart: drawn edges (width 3) are 1 apart,
    // below the spacing rule of 3 — but not touching, so no short.
    let mut ra = NetRoute::new();
    ra.segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal1));
    design.set_route(a, ra);
    let mut rb = NetRoute::new();
    rb.segs
        .push(wire(Point::new(10, 14), Point::new(90, 14), Layer::Metal1));
    design.set_route(b, rb);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    match &report.violations[0] {
        Violation::Spacing {
            a: lo,
            b: hi,
            layer,
            gap,
            required,
            ..
        } => {
            assert_eq!((*lo, *hi), (a, b));
            assert_eq!(*layer, Layer::Metal1);
            assert_eq!(*gap, 1.0, "edge-to-edge drawn gap");
            assert_eq!(*required, 3);
        }
        other => panic!("expected a spacing violation, got {other}"),
    }
}

#[test]
fn legal_pitch_pair_is_not_flagged() {
    let mut layout = base_layout();
    let a = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let b = two_pin_net(&mut layout, "b", Point::new(10, 16), Point::new(90, 16));
    let mut design = RoutedDesign::new(layout.die, 2);
    // Centerlines a full pitch (width 3 + spacing 3) apart: the drawn
    // gap equals the spacing rule exactly, which is legal.
    let mut ra = NetRoute::new();
    ra.segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal1));
    design.set_route(a, ra);
    let mut rb = NetRoute::new();
    rb.segs
        .push(wire(Point::new(10, 16), Point::new(90, 16), Layer::Metal1));
    design.set_route(b, rb);
    let report = verify(&layout, &design);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn injected_via_without_landing_layer_is_detected() {
    let mut layout = base_layout();
    let n = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let mut design = RoutedDesign::new(layout.die, 1);
    // A via to metal2 in the middle of the wire, with no metal2
    // geometry anywhere to land on.
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal1));
    route
        .vias
        .push(Via::new(Point::new(50, 10), Layer::Metal1, Layer::Metal2));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(
        report.violations[0],
        Violation::ViaLanding {
            net: n,
            at: Point::new(50, 10),
            missing: Layer::Metal2,
        }
    );
}

#[test]
fn injected_wire_through_metal3_obstacle_is_detected() {
    let mut layout = base_layout();
    let n = layout.add_net("a", NetClass::Signal);
    layout.add_pin(n, None, Point::new(10, 50), Layer::Metal3);
    layout.add_pin(n, None, Point::new(90, 50), Layer::Metal3);
    layout.add_obstacle(Obstacle::new(
        Rect::new(40, 30, 60, 70),
        LayerSet::single(Layer::Metal3),
    ));
    let mut design = RoutedDesign::new(layout.die, 1);
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 50), Point::new(90, 50), Layer::Metal3));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(
        report.violations[0],
        Violation::ObstacleIntrusion {
            net: n,
            obstacle: 0,
            layer: Layer::Metal3,
            at: Point::new(10, 50),
        }
    );
}

#[test]
fn wire_over_an_obstacle_on_an_unblocked_layer_is_clean() {
    let mut layout = base_layout();
    let n = two_pin_net(&mut layout, "a", Point::new(10, 50), Point::new(90, 50));
    layout.add_obstacle(Obstacle::new(
        Rect::new(40, 30, 60, 70),
        LayerSet::single(Layer::Metal3),
    ));
    let mut design = RoutedDesign::new(layout.die, 1);
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 50), Point::new(90, 50), Layer::Metal1));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn l_route_without_a_corner_via_is_open() {
    let mut layout = base_layout();
    let n = two_pin_net_on(
        &mut layout,
        "a",
        (Point::new(10, 10), Layer::Metal3),
        (Point::new(90, 60), Layer::Metal4),
    );
    let mut design = RoutedDesign::new(layout.die, 1);
    // The metal3 leg and the metal4 riser meet at (90, 10) only in the
    // plan view: without a via there, they are two components.
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(90, 10), Layer::Metal3));
    route
        .segs
        .push(wire(Point::new(90, 10), Point::new(90, 60), Layer::Metal4));
    design.set_route(n, route.clone());
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(
        report.violations[0],
        Violation::OpenNet {
            net: n,
            components: 2
        }
    );
    route
        .vias
        .push(Via::new(Point::new(90, 10), Layer::Metal3, Layer::Metal4));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn injected_wire_outside_die_is_detected() {
    let mut layout = base_layout();
    let n = two_pin_net(&mut layout, "a", Point::new(10, 10), Point::new(90, 10));
    let mut design = RoutedDesign::new(layout.die, 1);
    // The wire overshoots the 200-wide die.
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(250, 10), Layer::Metal1));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert_eq!(report.count(ViolationKind::OutsideDie), 1, "{report}");
    assert!(matches!(
        report
            .violations
            .iter()
            .find(|v| v.kind() == ViolationKind::OutsideDie),
        Some(Violation::OutsideDie {
            layer: Some(Layer::Metal1),
            ..
        })
    ));
}

#[test]
fn injected_sliver_is_detected() {
    let mut layout = base_layout();
    // Single-pin net: connectivity is skipped, geometry checks still run.
    let n = layout.add_net("a", NetClass::Signal);
    layout.add_pin(n, None, Point::new(10, 10), Layer::Metal1);
    let mut design = RoutedDesign::new(layout.die, 1);
    // A length-2 stub (metal1 min width is 3) protruding from the pin
    // with a free far end.
    let mut route = NetRoute::new();
    route
        .segs
        .push(wire(Point::new(10, 10), Point::new(12, 10), Layer::Metal1));
    design.set_route(n, route);
    let report = verify(&layout, &design);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(
        report.violations[0],
        Violation::MinWidth {
            net: n,
            layer: Layer::Metal1,
            at: Point::new(10, 10),
            length: 2,
            required: 3,
        }
    );
}
