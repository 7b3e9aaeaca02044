//! The paper's area-control claim: "If total layout area is a priority,
//! layout area allocated for channels can be controlled through the net
//! partitioning process" — down to eliminating channels entirely.
//!
//! Sweeps the area-budget partitioning (max estimated tracks per
//! channel) on the ami33-equivalent and reports how set A shrinks and
//! layout area falls as the budget tightens.
//!
//! Every number printed is deterministic; CI compares the output with
//! `crates/bench/golden/budget_sweep.txt`.

use ocr_bench::assert_clean;
use ocr_core::{Flow, PartitionStrategy, RunSession};
use ocr_exec::RunControl;
use ocr_gen::suite;

fn main() {
    let chip = suite::ami33_like();
    println!(
        "Channel-area budget sweep (ami33): tighter budget → more nets over-cell → smaller die"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>8} {:>6}",
        "budget", "A nets", "B nets", "area", "wl", "vias"
    );
    for budget in [usize::MAX, 24, 12, 6, 3, 0] {
        let flow = Flow {
            partition: PartitionStrategy::AreaBudget {
                max_tracks_per_channel: budget,
            },
            ..Flow::default()
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
        let flow = Flow::default();
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
    }
}
