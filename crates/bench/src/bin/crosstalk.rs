//! Quantifies the paper's §1 crosstalk argument: "Channel based
//! multi-layer algorithms also tend to generate wires running parallel,
//! one on top of the other, over relatively long distances, creating
//! capacitive coupling that can cause severe cross-talk problems."
//!
//! Runs the 3-layer (HVH) and 4-layer channel flows and the proposed
//! over-cell flow on the benchmark suite and reports each design's
//! coupling exposure (different-net stacked overlap between the
//! same-direction layer pairs, plus same-layer adjacent-track
//! parallelism within one pitch).

use ocr_core::{FlowKind, OverCellFlow};
use ocr_gen::suite;
use ocr_netlist::coupling_report;

fn main() {
    println!("Crosstalk exposure: different-net parallel wiring (lengths in DBU)");
    println!(
        "{:<8} {:<12} {:>10} {:>10} {:>12} {:>14}",
        "Example", "flow", "stacked-H", "stacked-V", "max-run", "same-layer-adj"
    );
    for chip in suite::all() {
        let pitch = chip.layout.rules.over_cell_pitch();
        let flows: Vec<(&str, ocr_core::FlowResult)> = vec![
            (
                "over-cell",
                OverCellFlow::default()
                    .run(&chip.layout, &chip.placement)
                    .expect("over-cell"),
            ),
            (
                "channel-3L",
                FlowKind::Channel3
                    .build()
                    .run(&chip.layout, &chip.placement)
                    .expect("3-layer"),
            ),
            (
                "channel-4L",
                FlowKind::Channel4
                    .build()
                    .run(&chip.layout, &chip.placement)
                    .expect("4-layer"),
            ),
        ];
        for (name, res) in flows {
            let r = coupling_report(&res.design, pitch);
            println!(
                "{:<8} {:<12} {:>10} {:>10} {:>12} {:>14}",
                chip.spec.name,
                name,
                r.stacked_horizontal,
                r.stacked_vertical,
                r.max_stacked_run,
                r.same_layer_parallel
            );
        }
    }
    println!();
    println!("Expectation (paper §1): the stacked columns are large for the");
    println!("multi-layer channel flows (HVH stacks trunks at identical track");
    println!("offsets) and near zero for the over-cell flow.");
}
