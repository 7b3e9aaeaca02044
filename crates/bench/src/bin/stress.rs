//! Scale stress: the over-cell flow on 1×, 2× and 4× ami33-sized chips,
//! routed to completion with a clean oracle report at sizes beyond the
//! paper's. The output is deterministic (CI compares it with
//! `crates/bench/golden/stress.txt`); perfbench's `scale8` workload
//! times the ×8 chip.

use ocr_core::Flow;
use ocr_gen::{generate, suite};

fn main() {
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>10} {:>9} {:>9}",
        "chip", "cells", "nets", "pins", "area", "wl", "vias"
    );
    for scale in [1usize, 2, 4] {
        let chip = generate(&suite::stress(scale));
        let res = Flow::default()
            .run(&chip.layout, &chip.placement)
            .expect("flow");
        assert!(res.design.failed.is_empty(), "{}: failures", chip.spec.name);
        ocr_bench::assert_clean(&chip.spec.name, &res);
        println!(
            "{:<10} {:>6} {:>6} {:>7} {:>10} {:>9} {:>9}",
            chip.spec.name,
            chip.layout.cells.len(),
            chip.layout.nets.len(),
            chip.layout.total_pins(),
            res.metrics.layout_area,
            res.metrics.wire_length,
            res.metrics.vias
        );
    }
}
