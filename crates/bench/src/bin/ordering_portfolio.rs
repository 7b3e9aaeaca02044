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

use ocr_core::{ordering_from_name, FlowKind, FlowOptions, OverCellFlow, RunSession};
use ocr_exec::RunControl;
use ocr_gen::suite;
use ocr_netlist::validate_routed_design;

const STRATEGIES: [&str; 5] = [
    "longest",
    "shortest",
    "congestion",
    "criticality",
    "shuffle:1",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("error: ordering_portfolio: flag `--json` requires a value");
                std::process::exit(2);
            }
        });
    let mut chips = suite::all();
    if std::env::var_os("OCR_BENCH_QUICK").is_some() {
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
            let errors = validate_routed_design(&res.layout, &res.design);
            assert!(errors.is_empty(), "{name} under {strategy}: {}", errors[0]);
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
        let errors = validate_routed_design(&res.layout, &res.design);
        assert!(errors.is_empty(), "{name} portfolio: {}", errors[0]);
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
        let doc = format!(
            "{{\n  \"schema\": \"ocr-bench-v1\",\n  \"bench\": \"ordering_portfolio\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
