//! Obstacle-aware over-cell routing: the Level B router recognizes
//! arbitrarily sized obstacles — power/ground trunks, limited M3/M4 use
//! inside macro-cells, or user keep-outs over sensitive circuits — and
//! routes around them.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example obstacle_routing
//! ```

use overcell_router::core::{config::LevelBConfig, level_b::LevelBRouter};
use overcell_router::geom::{Layer, LayerSet, Point, Rect};
use overcell_router::netlist::{Layout, NetClass, Obstacle};
use overcell_router::render::render_svg;
use overcell_router::verify::verify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut layout = Layout::new(Rect::new(0, 0, 800, 600));

    // A macro-cell with a sensitive analog block: the user excludes the
    // area over it from both over-cell layers to avoid capacitive
    // coupling (paper §1).
    layout.add_cell("mixed_signal", Rect::new(100, 100, 700, 500));
    layout.add_obstacle(Obstacle::new(
        Rect::new(300, 200, 500, 400),
        LayerSet::level_b(),
    ));
    // A metal3 power spine inside the cell: obstacle on M3 only —
    // vertical metal4 wires may still cross it.
    layout.add_obstacle(Obstacle::new(
        Rect::new(150, 150, 650, 170),
        LayerSet::single(Layer::Metal3),
    ));

    // Nets that must cross the obstacle region.
    let straight = layout.add_net("straight", NetClass::Signal);
    layout.add_pin(straight, None, Point::new(20, 300), Layer::Metal2);
    layout.add_pin(straight, None, Point::new(780, 300), Layer::Metal2);

    let diagonal = layout.add_net("diagonal", NetClass::Signal);
    layout.add_pin(diagonal, None, Point::new(40, 80), Layer::Metal2);
    layout.add_pin(diagonal, None, Point::new(760, 520), Layer::Metal2);

    let nets = vec![straight, diagonal];
    let mut router = LevelBRouter::new(&layout, &nets, LevelBConfig::default())?;
    let result = router.route_all()?;

    assert!(result.design.failed.is_empty(), "all nets must route");
    let report = verify(&layout, &result.design);
    assert!(report.is_clean(), "{report}");

    for &net in &nets {
        let route = result.design.route(net).expect("routed");
        let direct = layout.net_hpwl(net);
        println!(
            "net `{}`: wl {} (direct distance {}), {} corner(s) — detour {:.1}%",
            layout.net(net).name,
            route.wire_length(),
            direct,
            route.corner_count(),
            100.0 * (route.wire_length() - direct) as f64 / direct as f64,
        );
    }
    // The straight net cannot go straight: the keep-out forces a detour.
    let detoured = result.design.route(straight).expect("routed");
    assert!(detoured.wire_length() > layout.net_hpwl(straight));

    let svg = render_svg(&layout, &result.design);
    std::fs::write("obstacle_routing.svg", &svg)?;
    println!("wrote obstacle_routing.svg ({} bytes)", svg.len());
    Ok(())
}
