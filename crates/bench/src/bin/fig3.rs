//! Regenerates the paper's Figure 3: the Level B routing of the ami33
//! example, written as `fig3_ami33_level_b.svg` in the working
//! directory (plus `fig3_ami33_full.svg` with Level A included).

use ocr_core::Flow;
use ocr_gen::suite;
use ocr_netlist::RoutedDesign;
use ocr_render::render_svg;
use std::fs;

fn main() {
    let chip = suite::ami33_like();
    let flow = Flow::default();
    let res = flow
        .run(&chip.layout, &chip.placement)
        .expect("over-cell flow routes ami33");

    // Level-B-only view (the paper's figure shows only the over-cell
    // wiring).
    let mut level_b_only = RoutedDesign::new(res.design.die, res.design.routes.len());
    for &net in &res.level_b_nets {
        if let Some(route) = res.design.route(net) {
            level_b_only.set_route(net, route.clone());
        }
    }
    let svg_b = render_svg(&res.layout, &level_b_only);
    fs::write("fig3_ami33_level_b.svg", &svg_b).expect("write svg");
    let svg_full = render_svg(&res.layout, &res.design);
    fs::write("fig3_ami33_full.svg", &svg_full).expect("write svg");

    println!("Figure 3: Level B routing of layout example ami33");
    println!(
        "  {} level B nets over {} cells, die {} ({} bytes of SVG)",
        res.level_b_nets.len(),
        res.layout.cells.len(),
        res.layout.die,
        svg_b.len()
    );
    println!("  wrote fig3_ami33_level_b.svg and fig3_ami33_full.svg");
    if let Some(stats) = &res.stats {
        println!("  level B stats: {stats}");
    }
}
