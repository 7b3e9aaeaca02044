//! Scale stress: the over-cell flow on 1×, 2× and 4× ami33-sized chips,
//! with wall-clock timing and completion reporting. Demonstrates the
//! O(n·h·v) behaviour end-to-end at sizes beyond the paper's.

use ocr_core::OverCellFlow;
use ocr_gen::{generate, BenchmarkSpec};
use std::time::Instant;

fn spec(scale: usize) -> BenchmarkSpec {
    BenchmarkSpec {
        name: format!("ami33x{scale}"),
        cells: 33 * scale,
        rows: 5 * scale.min(4),
        nets_level_a: 4 * scale,
        avg_pins_level_a: 44.25,
        nets_level_b: 119 * scale,
        avg_pins_level_b: 2.55,
        obstacles: 8 * scale,
        locality: 0.15,
        seed: 0xA3133 + scale as u64,
    }
}

fn main() {
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>10} {:>9} {:>9} {:>8}",
        "chip", "cells", "nets", "pins", "area", "wl", "vias", "time"
    );
    for scale in [1usize, 2, 4] {
        let chip = generate(&spec(scale));
        let t0 = Instant::now();
        let res = OverCellFlow::default()
            .run(&chip.layout, &chip.placement)
            .expect("flow");
        let dt = t0.elapsed();
        assert!(res.design.failed.is_empty(), "{}: failures", chip.spec.name);
        ocr_bench::assert_clean(&chip.spec.name, &res);
        println!(
            "{:<10} {:>6} {:>6} {:>7} {:>10} {:>9} {:>9} {:>7.2}s",
            chip.spec.name,
            chip.layout.cells.len(),
            chip.layout.nets.len(),
            chip.layout.total_pins(),
            res.metrics.layout_area,
            res.metrics.wire_length,
            res.metrics.vias,
            dt.as_secs_f64()
        );
    }
}
