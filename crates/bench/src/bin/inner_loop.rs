//! `inner_loop` — the Level B inner-loop microbench.
//!
//! The Level B router spends nearly all of its time expanding TIG
//! vertices in the MBFS (free-run scans, PST bookkeeping, path
//! selection). This bench reports that hot loop's throughput directly:
//! **expanded vertices per second of Level B phase time** on each suite
//! chip, so optimizations to the occupancy grid or the PST arena move a
//! number that is visible across commits.
//!
//! ```text
//! inner_loop [--json FILE]
//! ```
//!
//! `--json` additionally writes the measurements as a machine-readable
//! snapshot (`ocr-bench-v1`). Expanded-vertex counts are deterministic
//! (a diff means search behaviour changed); timings are a property of
//! the host.

use ocr_bench::harness;
use ocr_core::{FlowKind, FlowOptions, FlowResult};
use ocr_gen::suite;
use std::time::Duration;

fn main() {
    let json_path = harness::json_path("inner_loop");
    let runs: usize = if harness::quick() { 1 } else { 5 };
    println!("Level B inner loop: expanded TIG vertices per second (median of {runs})");
    println!(
        "{:<8} {:>10} {:>12} {:>14}",
        "chip", "expanded", "level_b", "vertices/s"
    );
    let mut rows: Vec<String> = Vec::new();
    for chip in suite::all() {
        let name = chip.spec.name.as_str();
        let route = || -> FlowResult {
            FlowKind::OverCell
                .build_with(FlowOptions::new().telemetry(true))
                .run(&chip.layout, &chip.placement)
                .expect("overcell flow")
        };
        // The Level B inner loop is serial per net; measure at one
        // worker so pool scheduling noise stays out of the number.
        let level_b_ns = |res: &FlowResult| -> u64 {
            res.telemetry
                .as_ref()
                .expect("instrumented run")
                .aggregate()
                .iter()
                .find(|a| a.name == "flow.level_b")
                .expect("level_b phase span")
                .total_ns
        };
        let reference = ocr_exec::with_threads(1, route);
        let expanded = reference
            .stats
            .as_ref()
            .map(|s| s.expanded_vertices)
            .unwrap_or(0);
        let mut samples: Vec<u64> = Vec::with_capacity(runs);
        for _ in 0..runs {
            let res = ocr_exec::with_threads(1, route);
            assert_eq!(
                res.stats.as_ref().map(|s| s.expanded_vertices),
                Some(expanded),
                "{name}: expanded-vertex count must be deterministic"
            );
            samples.push(level_b_ns(&res));
        }
        let median_ns = harness::median(samples);
        let vps = expanded as f64 / (median_ns as f64 / 1e9).max(f64::EPSILON);
        println!(
            "{name:<8} {expanded:>10} {:>12.3?} {vps:>14.0}",
            Duration::from_nanos(median_ns)
        );
        rows.push(format!(
            "    {{\"chip\": \"{name}\", \"expanded\": {expanded}, \
             \"level_b_ns\": {median_ns}, \"vertices_per_sec\": {vps:.0}}}"
        ));
    }
    if let Some(path) = json_path {
        harness::write_snapshot(
            &path,
            "inner_loop",
            &[
                ("runs", runs.to_string()),
                ("rows", harness::json_rows(&rows)),
            ],
        );
    }
}
