//! End-to-end integration tests: complete flows on generated chips,
//! validated for electrical correctness, plus cross-flow invariants.

use overcell_router::core::{
    run_analytic_four_layer_estimate, FlowKind, FlowOptions, OverCellFlow, PartitionStrategy,
};
use overcell_router::gen::random::small_random;
use overcell_router::gen::suite;
use overcell_router::verify::verify;

#[test]
fn every_flow_on_many_seeds() {
    for kind in FlowKind::ALL {
        for seed in 0..6 {
            let chip = small_random(6, 2, 3, 12, seed);
            let res = kind
                .build()
                .run(&chip.layout, &chip.placement)
                .unwrap_or_else(|e| panic!("{kind} seed {seed}: {e}"));
            if kind == FlowKind::OverCell {
                assert!(res.design.failed.is_empty(), "seed {seed}: failures");
            }
            let report = verify(&res.layout, &res.design);
            assert!(report.is_clean(), "{kind} seed {seed}: {report}");
        }
    }
}

#[test]
fn three_layer_flow_between_two_and_four_layer_tracks() {
    let chip = small_random(8, 2, 4, 16, 3);
    let two = FlowKind::Channel2
        .build()
        .run(&chip.layout, &chip.placement)
        .expect("two-layer");
    let three = FlowKind::Channel3
        .build()
        .run(&chip.layout, &chip.placement)
        .expect("three-layer");
    // Per-channel, two-lane tracks never exceed single-lane tracks.
    for (t3, t2) in three.channel_tracks.iter().zip(&two.channel_tracks) {
        assert!(t3 <= t2, "3-layer {t3} vs 2-layer {t2} tracks");
    }
}

#[test]
fn over_cell_never_larger_than_two_layer_baseline() {
    for seed in [1, 3, 5, 8] {
        let chip = small_random(8, 2, 4, 16, seed);
        let over = OverCellFlow::default()
            .run(&chip.layout, &chip.placement)
            .expect("over-cell");
        let two = FlowKind::Channel2
            .build()
            .run(&chip.layout, &chip.placement)
            .expect("two-layer");
        assert!(
            over.metrics.layout_area <= two.metrics.layout_area,
            "seed {seed}: over-cell {} vs baseline {}",
            over.metrics.layout_area,
            two.metrics.layout_area
        );
    }
}

#[test]
fn all_b_partition_minimizes_channels() {
    let chip = small_random(6, 2, 3, 12, 2);
    let default = OverCellFlow::default()
        .run(&chip.layout, &chip.placement)
        .expect("default");
    let all_b = OverCellFlow {
        partition: PartitionStrategy::AllB,
        ..OverCellFlow::default()
    }
    .run(&chip.layout, &chip.placement)
    .expect("all-B");
    assert!(all_b.channel_tracks.iter().all(|&t| t == 0));
    assert!(all_b.metrics.layout_area <= default.metrics.layout_area);
    assert!(verify(&all_b.layout, &all_b.design).is_clean());
}

#[test]
fn analytic_estimate_is_positive_and_bounded_by_real_two_layer_height() {
    let chip = small_random(6, 2, 3, 12, 4);
    let two = FlowKind::Channel2
        .build()
        .run(&chip.layout, &chip.placement)
        .expect("two-layer");
    let est = run_analytic_four_layer_estimate(&two, &chip.layout);
    assert!(est > 0);
}

#[test]
fn flows_are_deterministic() {
    let chip = suite::ami33_like();
    let a = OverCellFlow::default()
        .run(&chip.layout, &chip.placement)
        .expect("run 1");
    let b = OverCellFlow::default()
        .run(&chip.layout, &chip.placement)
        .expect("run 2");
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.layout.die, b.layout.die);
}

#[test]
fn suite_chips_route_fully_with_all_flows() {
    // The headline reproduction: every suite chip routes 100% in every
    // flow and validates cleanly. (Table 2/3 shapes are asserted in
    // `paper_reproduction.rs`.)
    for chip in suite::all() {
        let over = OverCellFlow::default()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{}: {e}", chip.spec.name));
        assert!(over.design.failed.is_empty(), "{}", chip.spec.name);
        let report = verify(&over.layout, &over.design);
        assert!(report.is_clean(), "{}: {report}", chip.spec.name);
    }
}

#[test]
fn suite_chips_pass_the_independent_oracle_in_all_flows() {
    // The ocr-verify oracle re-derives connectivity and design-rule
    // legality from the emitted geometry alone; every flow on every
    // suite chip must come back clean. The oracle is attached via the
    // shared FlowOptions, the same path the `ocr verify --flow` CLI uses.
    for chip in suite::all() {
        let name = &chip.spec.name;
        for kind in [FlowKind::OverCell, FlowKind::Channel2, FlowKind::Channel4] {
            let res = kind
                .build_with(FlowOptions::new().verify(true))
                .run(&chip.layout, &chip.placement)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = res.verify.expect("verify requested");
            assert!(report.is_clean(), "{name} {kind}:\n{report}");
            assert_eq!(report.open_nets(), 0, "{name} {kind}");
        }
    }
}

#[test]
fn level_a_and_level_b_nets_partition_the_netlist() {
    let chip = small_random(6, 2, 3, 12, 9);
    let res = OverCellFlow::default()
        .run(&chip.layout, &chip.placement)
        .expect("flow");
    let mut all: Vec<u32> = res
        .level_a_nets
        .iter()
        .chain(res.level_b_nets.iter())
        .map(|n| n.0)
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), res.level_a_nets.len() + res.level_b_nets.len());
    assert_eq!(all.len(), chip.layout.nets.len());
}

#[test]
fn area_budget_partitioning_is_monotone() {
    let chip = small_random(6, 2, 3, 12, 6);
    let mut last_area = i128::MAX;
    for budget in [usize::MAX, 4, 0] {
        let res = OverCellFlow {
            partition: PartitionStrategy::AreaBudget {
                max_tracks_per_channel: budget,
            },
            ..OverCellFlow::default()
        }
        .run(&chip.layout, &chip.placement)
        .unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        assert!(res.design.failed.is_empty());
        assert!(verify(&res.layout, &res.design).is_clean());
        assert!(
            res.metrics.layout_area <= last_area,
            "budget {budget}: area {} grew past {}",
            res.metrics.layout_area,
            last_area
        );
        last_area = res.metrics.layout_area;
    }
}
