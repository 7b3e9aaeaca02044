//! The paper's area-control claim: "If total layout area is a priority,
//! layout area allocated for channels can be controlled through the net
//! partitioning process" — down to eliminating channels entirely.
//!
//! Sweeps the area-budget partitioning (max estimated tracks per
//! channel) on the ami33-equivalent and reports how set A shrinks and
//! layout area falls as the budget tightens.
//!
//! ```text
//! budget_sweep [--json FILE]
//! ```
//!
//! `--json` additionally writes both sweeps as a machine-readable
//! snapshot (`ocr-bench-v1`). Every number in it is deterministic, so
//! the checked-in snapshot doubles as a regression fence: a diff means
//! routing behaviour changed.

use ocr_bench::{assert_clean, harness};
use ocr_core::{OverCellFlow, PartitionStrategy, RunSession};
use ocr_exec::RunControl;
use ocr_gen::suite;

fn main() {
    let json_path = harness::json_path("budget_sweep");
    let mut area_rows: Vec<String> = Vec::new();
    let mut step_rows: Vec<String> = Vec::new();
    let chip = suite::ami33_like();
    println!(
        "Channel-area budget sweep (ami33): tighter budget → more nets over-cell → smaller die"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>8} {:>6}",
        "budget", "A nets", "B nets", "area", "wl", "vias"
    );
    for budget in [usize::MAX, 24, 12, 6, 3, 0] {
        let flow = OverCellFlow {
            partition: PartitionStrategy::AreaBudget {
                max_tracks_per_channel: budget,
            },
            ..OverCellFlow::default()
        };
        let res = flow.run(&chip.layout, &chip.placement).expect("flow");
        assert!(res.design.failed.is_empty(), "budget {budget}: failures");
        assert_clean(&format!("budget {budget}"), &res);
        let label = if budget == usize::MAX {
            "inf".to_string()
        } else {
            budget.to_string()
        };
        println!(
            "{label:>8} {:>8} {:>8} {:>10} {:>8} {:>6}",
            res.level_a_nets.len(),
            res.level_b_nets.len(),
            res.metrics.layout_area,
            res.metrics.wire_length,
            res.metrics.vias
        );
        area_rows.push(format!(
            "    {{\"budget\": \"{label}\", \"a_nets\": {}, \"b_nets\": {}, \"area\": {}, \
             \"wire_length\": {}, \"vias\": {}}}",
            res.level_a_nets.len(),
            res.level_b_nets.len(),
            res.metrics.layout_area,
            res.metrics.wire_length,
            res.metrics.vias
        ));
    }

    // The other budget: run control's deterministic *step* budget.
    // Sweeping --max-steps shows how completion grows with allowed
    // work — an anytime-quality curve for interruptible routing.
    println!();
    println!("Step-budget sweep (ami33, overcell): nets completed vs work allowed");
    println!(
        "{:>8} {:>8} {:>8} {:>9} {:>8}",
        "steps", "used", "routed", "degraded", "tripped"
    );
    for budget in [0u64, 25, 50, 100, 200, 400, u64::MAX] {
        let session = RunSession::with_control(RunControl::new().with_step_budget(budget));
        let flow = OverCellFlow::default();
        let res = flow
            .run_controlled(&chip.layout, &chip.placement, &session)
            .expect("a budget trip degrades, it does not error");
        let routed = res.design.routes.iter().filter(|r| r.is_some()).count();
        let degraded = res.degradation.as_ref().map_or(0, |d| d.nets.len());
        let label = if budget == u64::MAX {
            "inf".to_string()
        } else {
            budget.to_string()
        };
        println!(
            "{label:>8} {:>8} {:>8} {:>9} {:>8}",
            session.control.steps(),
            routed,
            degraded,
            if session.control.is_tripped() {
                "yes"
            } else {
                "no"
            }
        );
        step_rows.push(format!(
            "    {{\"budget\": \"{label}\", \"used\": {}, \"routed\": {routed}, \
             \"degraded\": {degraded}, \"tripped\": {}}}",
            session.control.steps(),
            session.control.is_tripped()
        ));
    }

    if let Some(path) = json_path {
        harness::write_snapshot(
            &path,
            "budget_sweep",
            &[
                ("chip", "\"ami33\"".to_string()),
                ("area_sweep", harness::json_rows(&area_rows)),
                ("step_sweep", harness::json_rows(&step_rows)),
            ],
        );
    }
}
