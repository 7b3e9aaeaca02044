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
    // Per chip: the channel flows' stacked-H over the over-cell flow's.
    let mut ratios: Vec<(f64, f64)> = Vec::new();
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
        let mut stacked_h = Vec::new();
        for (name, res) in flows {
            let r = coupling_report(&res.design, pitch);
            stacked_h.push(r.stacked_horizontal as f64);
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
        ratios.push((stacked_h[1] / stacked_h[0], stacked_h[2] / stacked_h[0]));
    }
    let range = |f: fn(&(f64, f64)) -> f64| {
        let lo = ratios.iter().map(f).fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (hvh_lo, hvh_hi) = range(|r| r.0);
    let (hv4_lo, hv4_hi) = range(|r| r.1);
    // The verdict follows the smallest ratio, so the note never claims
    // more than the table above it shows.
    let verdict = if hvh_lo > 1.0 && hv4_lo > 1.0 {
        "is the least"
    } else {
        "is NOT the least"
    };
    println!();
    println!("Expectation (paper §1): the stacked columns are large for the");
    println!("multi-layer channel flows (HVH stacks trunks at identical track");
    println!("offsets). Measured: on every chip the over-cell flow's stacked-H");
    println!("{verdict} of the three flows: HVH's is {hvh_lo:.1}-{hvh_hi:.1}x it and");
    println!("the 4-layer channel flow's {hv4_lo:.1}-{hv4_hi:.1}x.");
}
