//! Ordering-strategy quality across the suite: how each `ocr-order-v1`
//! strategy fares on every suite chip, and what the run-all portfolio
//! picks (DESIGN.md §12).
//!
//! ```text
//! ordering_portfolio [--json FILE]
//! ```
//!
//! `--json` writes the survey as a machine-readable `ocr-bench-v1`
//! snapshot. Only deterministic numbers go into it — per-strategy
//! unrouted nets and charged steps, the portfolio winner and its key —
//! so the checked-in snapshot is a regression fence: a diff means
//! ordering or routing behaviour changed. Wall-clock timings are
//! printed to stdout only. `OCR_BENCH_QUICK=1` surveys the first suite
//! chip alone.

use ocr_bench::{assert_clean, harness};
use ocr_core::{ordering_from_name, FlowKind, FlowOptions, OverCellFlow, RunSession};
use ocr_exec::RunControl;
use ocr_gen::suite;

const STRATEGIES: [&str; 5] = [
    "longest",
    "shortest",
    "congestion",
    "criticality",
    "shuffle:1",
];

fn main() {
    let json_path = harness::json_path("ordering_portfolio");
    let mut chips = suite::all();
    if harness::quick() {
        chips.truncate(1);
    }
    let mut rows: Vec<String> = Vec::new();
    println!("Net-ordering survey: every ocr-order-v1 strategy, then the run-all portfolio");
    for chip in &chips {
        let name = &chip.spec.name;
        println!();
        println!("{name}:");
        println!(
            "  {:>14} {:>9} {:>9} {:>9}",
            "strategy", "unrouted", "steps", "millis"
        );
        for strategy in STRATEGIES {
            let ordering = ordering_from_name(strategy).expect("known strategy");
            let session = RunSession::with_control(RunControl::new());
            let start = std::time::Instant::now();
            let res = FlowKind::OverCell
                .build_with_ordering(FlowOptions::new().salvage(true), Some(ordering))
                .run_controlled(&chip.layout, &chip.placement, &session)
                .unwrap_or_else(|e| panic!("{name} under {strategy}: {e}"));
            let millis = start.elapsed().as_millis();
            assert_clean(&format!("{name} under {strategy}"), &res);
            let unrouted = res.stats.as_ref().map_or(0, |s| s.nets_failed);
            let steps = session.control.steps();
            println!("  {strategy:>14} {unrouted:>9} {steps:>9} {millis:>9}");
            rows.push(format!(
                "    {{\"chip\": \"{name}\", \"strategy\": \"{strategy}\", \
                 \"unrouted\": {unrouted}, \"steps\": {steps}}}"
            ));
        }
        let flow = OverCellFlow {
            options: FlowOptions::new().salvage(true),
            ..OverCellFlow::default()
        };
        let start = std::time::Instant::now();
        let (res, report) = flow
            .run_portfolio(&chip.layout, &chip.placement, 4)
            .unwrap_or_else(|e| panic!("{name} portfolio: {e}"));
        let millis = start.elapsed().as_millis();
        assert_clean(&format!("{name} portfolio"), &res);
        println!(
            "  {:>14} {:>9} {:>9} {millis:>9}  (winner: {} @ index {})",
            "portfolio",
            report.winner_unrouted,
            report.winner_steps,
            report.winner_name(),
            report.winner
        );
        rows.push(format!(
            "    {{\"chip\": \"{name}\", \"strategy\": \"portfolio:4\", \
             \"unrouted\": {}, \"steps\": {}, \"winner\": \"{}\", \"winner_index\": {}}}",
            report.winner_unrouted,
            report.winner_steps,
            report.winner_name(),
            report.winner
        ));
    }
    if let Some(path) = json_path {
        harness::write_snapshot(
            &path,
            "ordering_portfolio",
            &[("rows", harness::json_rows(&rows))],
        );
    }
}
