//! Quickstart: build a small macro-cell layout by hand, route it with
//! the paper's two-level over-cell flow, and print the result.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use overcell_router::core::{Flow, PartitionStrategy};
use overcell_router::geom::{Layer, Point, Rect};
use overcell_router::netlist::{Layout, NetClass, Row, RowPlacement};
use overcell_router::verify::verify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A die with two rows of two macro-cells each.
    let mut layout = Layout::new(Rect::new(0, 0, 600, 420));
    let alu = layout.add_cell("alu", Rect::new(60, 60, 270, 180));
    let rom = layout.add_cell("rom", Rect::new(300, 60, 540, 180));
    let ram = layout.add_cell("ram", Rect::new(60, 270, 300, 390));
    let ctl = layout.add_cell("ctl", Rect::new(330, 270, 540, 390));

    // A critical net (set A): routed in the middle channel on M1/M2.
    let clk = layout.add_net("clk", NetClass::Critical);
    layout.add_pin(clk, Some(alu), Point::new(120, 180), Layer::Metal2);
    layout.add_pin(clk, Some(ram), Point::new(240, 270), Layer::Metal2);

    // Ordinary signal nets (set B): routed over the cells on M3/M4.
    let data = layout.add_net("data", NetClass::Signal);
    layout.add_pin(data, Some(alu), Point::new(90, 60), Layer::Metal2);
    layout.add_pin(data, Some(ctl), Point::new(480, 390), Layer::Metal2);

    let fanout = layout.add_net("fanout", NetClass::Signal);
    layout.add_pin(fanout, Some(rom), Point::new(360, 60), Layer::Metal2);
    layout.add_pin(fanout, Some(ram), Point::new(120, 390), Layer::Metal2);
    layout.add_pin(fanout, Some(ctl), Point::new(420, 270), Layer::Metal2);

    let placement = RowPlacement::new(
        vec![
            Row {
                y0: 60,
                height: 120,
                cells: vec![alu, rom],
            },
            Row {
                y0: 270,
                height: 120,
                cells: vec![ram, ctl],
            },
        ],
        60,
        60,
    );

    // The paper's flow: critical/timing nets to channels, everything
    // else over-cell.
    let flow = Flow {
        partition: PartitionStrategy::ByClass,
        ..Flow::default()
    };
    let result = flow.run(&layout, &placement)?;

    println!("routed {} nets:", result.metrics.routed_nets);
    println!(
        "  set A (channels, M1/M2): {} nets",
        result.level_a_nets.len()
    );
    println!(
        "  set B (over-cell, M3/M4): {} nets",
        result.level_b_nets.len()
    );
    println!("  final die: {}", result.layout.die);
    println!("  metrics: {}", result.metrics);
    if let Some(stats) = &result.stats {
        println!("  level B: {stats}");
    }

    // Audit the output with the independent oracle: every net connected,
    // no shorts, spacing, obstacle or die violations.
    let report = verify(&result.layout, &result.design);
    assert!(report.is_clean(), "{report}");
    println!("validation: clean");

    // Inspect one route.
    let route = result.design.route(data).expect("data net routed");
    println!(
        "net `data`: wl {}, {} corner(s), {} via cut(s)",
        route.wire_length(),
        route.corner_count(),
        route.via_cuts()
    );
    Ok(())
}
