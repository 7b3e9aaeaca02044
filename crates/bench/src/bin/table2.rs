//! Regenerates the paper's Table 2: percent reductions of the proposed
//! 4-layer over-cell flow relative to a two-layer channel routing
//! methodology, in layout area, total wire length and number of vias.
//!
//! The surviving text of the paper states only that "for the three
//! examples tested, a significant reduction in all three metrics is
//! observed" (the table's cell values did not survive the OCR of the
//! source document). The adjacent Table 3 shows layout-area reductions
//! of 13.7–17.1% against an even stronger (hypothetical 4-layer
//! channel) baseline, so Table 2's area reductions were at least that
//! large. The reproduction target is therefore the *shape*: double-digit
//! reductions in area, wire length and vias on all three examples.
//!
//! Via accounting: routing vias only; terminal via stacks (which the
//! paper's terminal rule folds into the terminal design) are printed
//! apart, with each flow's metrics and the over-cell flow's Level B
//! counters, below the table. See DESIGN.md.

use ocr_bench::{run_all_flows, table2_row};
use ocr_gen::suite;

fn main() {
    println!(
        "Table 2: percent reductions, proposed 4-layer over-cell flow vs 2-layer channel flow"
    );
    println!(
        "{:<8} {:>11} {:>11} {:>11}",
        "Example", "Area", "WireLen", "Vias"
    );
    // Chips fan out across the ocr-exec pool (and each chip's flows fan
    // out again inside run_all_flows); rows print in suite order.
    let chips = suite::all();
    let runs = ocr_exec::parallel_map(&chips, |chip| run_all_flows(chip, false));
    for run in &runs {
        println!(
            "{}",
            table2_row(&run.name, &run.over_cell.metrics, &run.two_layer.metrics)
        );
    }
    println!();
    println!("Per-flow metrics (vias = routing vias; term-vias = terminal via stack cuts):");
    for run in &runs {
        for (flow, res) in [("over-cell", &run.over_cell), ("two-layer", &run.two_layer)] {
            let m = &res.metrics;
            println!(
                "{:<8} {flow:<10} {m} term-vias={}",
                run.name, m.terminal_via_cuts
            );
        }
        if let Some(stats) = &run.over_cell.stats {
            println!(
                "{:<8} {:<10} {stats}; {} maze fallbacks, {} rips",
                run.name, "level B", stats.maze_fallbacks, stats.rips
            );
        }
    }
}
