//! Ordering-strategy quality across the suite: how each `ocr-order-v1`
//! strategy fares on every suite chip, and what the run-all portfolio
//! picks (DESIGN.md §12).
//!
//! Only deterministic numbers are printed — per-strategy unrouted nets
//! and charged steps, the portfolio winner and its index — and CI
//! compares the output with `crates/bench/golden/ordering_portfolio.txt`.
//! Wall-clock time is perfbench's to measure.

use ocr_bench::assert_clean;
use ocr_core::{ordering_from_name, Flow, FlowKind, FlowOptions, RunSession};
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
    println!("Net-ordering survey: every ocr-order-v1 strategy, then the run-all portfolio");
    for chip in &suite::all() {
        let name = &chip.spec.name;
        println!();
        println!("{name}:");
        println!("  {:>14} {:>9} {:>9}", "strategy", "unrouted", "steps");
        for strategy in STRATEGIES {
            let ordering = ordering_from_name(strategy).expect("known strategy");
            let session = RunSession::with_control(RunControl::new());
            let res = FlowKind::OverCell
                .build_with_ordering(FlowOptions::new().salvage(true), Some(ordering))
                .run_controlled(&chip.layout, &chip.placement, &session)
                .unwrap_or_else(|e| panic!("{name} under {strategy}: {e}"));
            assert_clean(&format!("{name} under {strategy}"), &res);
            let unrouted = res.stats.as_ref().map_or(0, |s| s.nets_failed);
            let steps = session.control.steps();
            println!("  {strategy:>14} {unrouted:>9} {steps:>9}");
        }
        let flow = Flow {
            options: FlowOptions::new().salvage(true),
            ..Flow::default()
        };
        let (res, report) = flow
            .run_portfolio(&chip.layout, &chip.placement, 4)
            .unwrap_or_else(|e| panic!("{name} portfolio: {e}"));
        assert_clean(&format!("{name} portfolio"), &res);
        println!(
            "  {:>14} {:>9} {:>9}  (winner: {} @ index {})",
            "portfolio",
            report.winner_unrouted,
            report.winner_steps,
            report.winner_name(),
            report.winner
        );
    }
}
