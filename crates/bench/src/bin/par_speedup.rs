//! Records the wall-clock speedup of the `ocr-exec`-parallelized stages
//! — per-channel Level A routing and the `ocr-verify` oracle — at one
//! worker thread versus a pool, over the full benchmark suite, and
//! checks the parallel outputs are **bit-identical** to the sequential
//! ones (routed geometry compared as `write_routes` text, oracle reports
//! compared structurally).
//!
//! ```text
//! par_speedup [THREADS] [--json FILE]   # default 4 threads
//! ```
//!
//! `--json` additionally writes the measurements as a machine-readable
//! snapshot (`ocr-bench-v1`), suitable for checking in and diffing
//! across commits.
//!
//! Speedups are *recorded*, not asserted: they are a property of the
//! host (a single-hardware-thread machine legitimately reports ~1.0×).
//! Bit-identity *is* asserted — the binary exits non-zero on any
//! divergence.

use ocr_bench::harness;
use ocr_core::{FlowKind, FlowOptions, FlowResult};
use ocr_gen::suite;
use ocr_io::write_routes;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let samples = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    harness::median(samples)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = harness::json_path("par_speedup");
    let threads: usize = args
        .iter()
        .find(|a| !a.starts_with('-') && Some(a.as_str()) != json_path.as_deref())
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let runs: usize = if harness::quick() { 1 } else { 5 };
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "ocr-exec speedup: 1 thread vs {threads} (median of {runs}; host has {hw} hardware thread(s))"
    );
    println!(
        "{:<8} {:<7} {:>12} {:>12} {:>9}  identical",
        "chip", "stage", "t(1)", "t(n)", "speedup"
    );

    let mut divergent = 0usize;
    let mut rows: Vec<String> = Vec::new();
    for chip in suite::all() {
        let name = chip.spec.name.as_str();
        let route = || -> FlowResult {
            FlowKind::Channel2
                .build()
                .run(&chip.layout, &chip.placement)
                .expect("channel2 flow")
        };
        let seq = ocr_exec::with_threads(1, route);
        let par = ocr_exec::with_threads(threads, route);
        let seq_text = write_routes(&seq.layout, &seq.design);
        let same_routes = seq_text == write_routes(&par.layout, &par.design);
        let t1 = median_time(runs, || {
            ocr_exec::with_threads(1, || std::hint::black_box(route()));
        });
        let tn = median_time(runs, || {
            ocr_exec::with_threads(threads, || std::hint::black_box(route()));
        });
        print_row(name, "route", t1, tn, same_routes);
        rows.push(json_row(name, "route", t1, tn, same_routes));
        divergent += usize::from(!same_routes);

        let check = || ocr_verify::verify(&seq.layout, &seq.design);
        let rep1 = ocr_exec::with_threads(1, check);
        let repn = ocr_exec::with_threads(threads, check);
        let same_report = rep1 == repn;
        let v1 = median_time(runs, || {
            ocr_exec::with_threads(1, || std::hint::black_box(check()));
        });
        let vn = median_time(runs, || {
            ocr_exec::with_threads(threads, || std::hint::black_box(check()));
        });
        print_row(name, "verify", v1, vn, same_report);
        rows.push(json_row(name, "verify", v1, vn, same_report));
        divergent += usize::from(!same_report);

        // Where the time goes: one instrumented run of the paper's flow
        // on the pool, reported through the ocr-obs telemetry layer.
        let instrumented = ocr_exec::with_threads(threads, || {
            FlowKind::OverCell
                .build_with(FlowOptions::new().telemetry(true))
                .run(&chip.layout, &chip.placement)
                .expect("overcell flow")
        });
        let telemetry = instrumented.telemetry.expect("instrumented run");
        println!("\n{name}: overcell phase breakdown at {threads} thread(s)");
        print!("{}", telemetry.render_table());
        println!();
    }

    if let Some(path) = json_path {
        harness::write_snapshot(
            &path,
            "par_speedup",
            &[
                ("threads", threads.to_string()),
                ("runs", runs.to_string()),
                ("hardware_threads", hw.to_string()),
                ("rows", harness::json_rows(&rows)),
            ],
        );
    }
    if divergent > 0 {
        eprintln!("error: {divergent} stage(s) diverged between 1 and {threads} threads");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn json_row(chip: &str, stage: &str, t1: Duration, tn: Duration, identical: bool) -> String {
    let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(f64::EPSILON);
    format!(
        "    {{\"chip\": \"{chip}\", \"stage\": \"{stage}\", \"t1_ns\": {}, \"tn_ns\": {}, \
         \"speedup\": {speedup:.3}, \"identical\": {identical}}}",
        t1.as_nanos(),
        tn.as_nanos()
    )
}

fn print_row(chip: &str, stage: &str, t1: Duration, tn: Duration, identical: bool) {
    let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(f64::EPSILON);
    println!(
        "{chip:<8} {stage:<7} {t1:>12.3?} {tn:>12.3?} {speedup:>8.2}x  {}",
        if identical { "yes" } else { "NO" }
    );
}
