//! Full-chip comparison on the ami33-equivalent benchmark: runs the
//! paper's over-cell flow, the 2-layer channel baseline and the 4-layer
//! channel comparator, then prints a Table 2/3-style summary.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example macro_cell_chip
//! ```

use overcell_router::core::{run_analytic_four_layer_estimate, Flow, FlowKind};
use overcell_router::gen::suite;
use overcell_router::netlist::RouteMetrics;
use overcell_router::verify::verify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chip = suite::ami33_like();
    println!(
        "benchmark {}: {} cells, {} nets, {} pins",
        chip.spec.name,
        chip.layout.cells.len(),
        chip.layout.nets.len(),
        chip.layout.total_pins()
    );

    let over = Flow::default().run(&chip.layout, &chip.placement)?;
    let two = FlowKind::Channel2
        .build()
        .run(&chip.layout, &chip.placement)?;
    let four = FlowKind::Channel4
        .build()
        .run(&chip.layout, &chip.placement)?;

    for (name, flow) in [
        ("over-cell 4L", &over),
        ("channel 2L", &two),
        ("channel 4L", &four),
    ] {
        let report = verify(&flow.layout, &flow.design);
        assert!(report.is_clean(), "{name}: {report}");
        println!(
            "{name:<14} area {:>9}  wl {:>8}  vias {:>5}  corners {:>5}  (+{} terminal cuts)",
            flow.metrics.layout_area,
            flow.metrics.wire_length,
            flow.metrics.vias,
            flow.metrics.corners,
            flow.metrics.terminal_via_cuts,
        );
    }
    let est = run_analytic_four_layer_estimate(&two, &chip.layout);
    println!("channel 4L (paper's optimistic 50% model): area {est}");

    let red = over.metrics.reductions_vs(&two.metrics);
    println!();
    println!("over-cell vs 2-layer channels: {red}");
    println!(
        "over-cell vs 4-layer channels: area {:+.1}%",
        RouteMetrics::percent_reduction(
            four.metrics.layout_area as f64,
            over.metrics.layout_area as f64
        )
    );
    if let Some(stats) = &over.stats {
        println!("level B routing: {stats}");
    }
    Ok(())
}
