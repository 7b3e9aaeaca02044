//! Multi-terminal routing with the Prim-based rectilinear Steiner
//! heuristic: a high-fanout net is decomposed into two-terminal
//! connections that may attach to *Steiner points* on already-routed
//! branches, beating the star and matching/beating the terminal-only
//! spanning tree.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example steiner_fanout
//! ```

use overcell_router::core::steiner::rectilinear_mst_length;
use overcell_router::core::{config::LevelBConfig, level_b::LevelBRouter};
use overcell_router::geom::{manhattan, Layer, Point, Rect};
use overcell_router::netlist::{Layout, NetClass};
use overcell_router::verify::verify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut layout = Layout::new(Rect::new(0, 0, 1000, 1000));

    // A clock-tree-like fanout: one driver, seven sinks.
    let pins = [
        Point::new(500, 500), // driver
        Point::new(100, 100),
        Point::new(900, 100),
        Point::new(100, 900),
        Point::new(900, 900),
        Point::new(500, 60),
        Point::new(60, 500),
        Point::new(940, 500),
    ];
    let net = layout.add_net("fanout8", NetClass::Signal);
    for &p in &pins {
        layout.add_pin(net, None, p, Layer::Metal2);
    }

    let nets = vec![net];
    let mut router = LevelBRouter::new(&layout, &nets, LevelBConfig::default())?;
    let result = router.route_all()?;
    let report = verify(&layout, &result.design);
    assert!(report.is_clean(), "{report}");

    let route = result.design.route(net).expect("routed");
    let star: i64 = pins[1..].iter().map(|&p| manhattan(pins[0], p)).sum();
    let mst = rectilinear_mst_length(&pins);
    println!("fanout-8 net routed over-cell:");
    println!("  star topology length : {star}");
    println!("  terminal-only MST    : {mst}");
    println!("  Steiner-heuristic wl : {}", route.wire_length());
    println!(
        "  corners: {}, via cuts: {}",
        route.corner_count(),
        route.via_cuts()
    );
    assert!(
        route.wire_length() <= mst,
        "Steiner attachment must not exceed the terminal-only MST"
    );
    assert!(route.wire_length() < star, "must beat the star");
    Ok(())
}
