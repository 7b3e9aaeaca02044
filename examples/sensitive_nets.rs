//! Sensitive-net aware routing: the paper's §3.2 extension point —
//! "Additional terms can be included in the cost function for nets with
//! special constraints, for example, to prevent parallel routing of
//! sensitive nets."
//!
//! A sensitive analog net runs at y = 300 between two keep-out walls
//! whose gaps are horizontally offset, so every bus net must place two
//! corners *somewhere in the band* around the victim. With the `w24`
//! term enabled the corners settle as far from the victim as the band
//! allows; with it disabled they land wherever wire length dictates.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example sensitive_nets
//! ```

use overcell_router::core::{
    config::LevelBConfig, cost::CostWeights, level_b::LevelBRouter, order::NetOrdering,
};
use overcell_router::geom::{Layer, LayerSet, Point, Rect};
use overcell_router::netlist::{Layout, NetClass, NetId, Obstacle};
use overcell_router::verify::verify;

fn build() -> (Layout, NetId, Vec<NetId>) {
    let mut layout = Layout::new(Rect::new(0, 0, 600, 600));
    // Two walls with offset gaps bound a band around y = 300.
    // Top wall at y ∈ [340, 350], gap at x ∈ [60, 140].
    layout.add_obstacle(Obstacle::new(
        Rect::new(-5, 340, 60, 350),
        LayerSet::level_b(),
    ));
    layout.add_obstacle(Obstacle::new(
        Rect::new(140, 340, 605, 350),
        LayerSet::level_b(),
    ));
    // Bottom wall at y ∈ [250, 260], gap at x ∈ [420, 500].
    layout.add_obstacle(Obstacle::new(
        Rect::new(-5, 250, 420, 260),
        LayerSet::level_b(),
    ));
    layout.add_obstacle(Obstacle::new(
        Rect::new(500, 250, 605, 260),
        LayerSet::level_b(),
    ));

    // The victim runs through the band.
    let sensitive = layout.add_net("analog_ref", NetClass::Critical);
    layout.add_pin(sensitive, None, Point::new(20, 300), Layer::Metal2);
    layout.add_pin(sensitive, None, Point::new(580, 300), Layer::Metal2);

    // Aggressor bus: top-left to bottom-right, forced through both gaps.
    let mut bus = Vec::new();
    for k in 0..4i64 {
        let n = layout.add_net(format!("bus{k}"), NetClass::Signal);
        layout.add_pin(n, None, Point::new(70 + 20 * k, 560), Layer::Metal2);
        layout.add_pin(n, None, Point::new(430 + 20 * k, 40), Layer::Metal2);
        bus.push(n);
    }
    (layout, sensitive, bus)
}

/// Routes and returns the mean distance of in-band bus corners from the
/// victim's y = 300.
fn run(w24: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let (layout, sensitive, bus) = build();
    let mut order = vec![sensitive];
    order.extend(&bus);
    let mut nets = vec![sensitive];
    nets.extend(&bus);
    let cfg = LevelBConfig {
        weights: CostWeights {
            w24,
            ..CostWeights::default()
        },
        sensitive_nets: vec![sensitive],
        ordering: NetOrdering::User(order),
        ..LevelBConfig::default()
    };
    let mut router = LevelBRouter::new(&layout, &nets, cfg)?;
    let res = router.route_all()?;
    assert!(res.design.failed.is_empty(), "all nets must route");
    let report = verify(&layout, &res.design);
    assert!(report.is_clean(), "{report}");

    let mut dists = Vec::new();
    for &n in &bus {
        for via in &res.design.route(n).expect("routed").vias {
            if via.at.y > 260 && via.at.y < 340 {
                dists.push((via.at.y - 300).abs() as f64);
            }
        }
    }
    assert!(!dists.is_empty(), "the walls must force in-band corners");
    Ok(dists.iter().sum::<f64>() / dists.len() as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let off = run(0.0)?;
    let on = run(8.0)?;
    println!("sensitive-net protection (w24 term), mean corner distance from the victim:");
    println!("  w24 = 0 (off): {off:.1} DBU");
    println!("  w24 = 8 (on) : {on:.1} DBU");
    assert!(
        on >= off,
        "the term must push corners away from the sensitive net"
    );
    println!("the cost term pushed aggressor corners away from the sensitive wire.");
    Ok(())
}
