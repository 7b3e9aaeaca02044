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

use ocr_core::{FlowKind, FlowOptions, FlowResult};
use ocr_gen::suite;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("error: inner_loop: flag `--json` requires a value");
                std::process::exit(2);
            }
        });
    let runs: usize = if std::env::var_os("OCR_BENCH_QUICK").is_some() {
        1
    } else {
        5
    };
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
        samples.sort();
        let median_ns = samples[samples.len() / 2];
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
        let doc = format!(
            "{{\n  \"schema\": \"ocr-bench-v1\",\n  \"bench\": \"inner_loop\",\n  \
             \"runs\": {runs},\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
