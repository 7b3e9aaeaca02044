//! The headline reproduction assertions: the *shapes* of the paper's
//! Tables 1–3 and the Figure 1 walk-through must hold on the synthetic
//! benchmark suite. (Absolute magnitudes differ — see EXPERIMENTS.md.)

use overcell_router::core::{run_analytic_four_layer_estimate, Flow, FlowKind};
use overcell_router::gen::suite;
use overcell_router::netlist::{coupling_report, ChipMetrics};

/// Table 1: the suite reproduces the paper's published statistics.
#[test]
fn table1_statistics_match() {
    let expected = [
        ("ami33", 33, 123, 4, 44.25),
        ("Xerox", 10, 203, 21, 9.19),
        ("ex3", 24, 320, 56, 3.23),
    ];
    for ((name, cells, nets, a_nets, a_avg), chip) in expected.iter().zip(suite::all()) {
        let a = chip.level_a_nets();
        let m = ChipMetrics::of(*name, &chip.layout, &a);
        assert_eq!(m.cells, *cells, "{name} cells");
        assert_eq!(m.nets, *nets, "{name} nets");
        assert_eq!(m.level_a_nets, *a_nets, "{name} level A nets");
        assert!(
            (m.level_a_avg_pins - a_avg).abs() < 0.05,
            "{name} level A avg pins {} vs {}",
            m.level_a_avg_pins,
            a_avg
        );
    }
}

/// Table 2 shape: the proposed flow reduces layout area, wire length
/// and routing vias on every example, by double-digit percentages for
/// area and wire length ("a significant reduction in all three metrics
/// is observed").
#[test]
fn table2_shape_over_cell_beats_two_layer() {
    for chip in suite::all() {
        let name = &chip.spec.name;
        let over = Flow::default()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let two = FlowKind::Channel2
            .build()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(over.design.failed.is_empty() && two.design.failed.is_empty());
        let red = over.metrics.reductions_vs(&two.metrics);
        assert!(red.layout_area >= 10.0, "{name}: area reduction {red}");
        assert!(
            red.wire_length >= 10.0,
            "{name}: wire-length reduction {red}"
        );
        assert!(red.vias > 0.0, "{name}: via reduction {red}");
    }
}

/// Table 3 shape: the over-cell router still beats the 4-layer channel
/// comparators — both the paper's optimistic 50 % analytic model and
/// our real HV+HV channel router ("a further reduction in the overall
/// layout area").
#[test]
fn table3_shape_over_cell_beats_four_layer_channels() {
    for chip in suite::all() {
        let name = &chip.spec.name;
        let over = Flow::default()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let two = FlowKind::Channel2
            .build()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let four = FlowKind::Channel4
            .build()
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let estimate = run_analytic_four_layer_estimate(&two, &chip.layout);
        assert!(
            over.metrics.layout_area < estimate,
            "{name}: over-cell {} vs analytic 4-layer {}",
            over.metrics.layout_area,
            estimate
        );
        assert!(
            over.metrics.layout_area < four.metrics.layout_area,
            "{name}: over-cell {} vs real 4-layer {}",
            over.metrics.layout_area,
            four.metrics.layout_area
        );
        // The 4-layer channel flow, in turn, needs no more area than the
        // 2-layer flow (more layers can only relax channels).
        assert!(
            four.metrics.layout_area <= two.metrics.layout_area,
            "{name}"
        );
    }
}

/// §3 claim: the TIG search expands far fewer nodes than a maze wave on
/// the suite's Level B problems (here via the recorded stats: on
/// average well under the grid size per connection).
#[test]
fn mbfs_expansion_stays_track_bounded() {
    let chip = suite::ami33_like();
    let over = Flow::default()
        .run(&chip.layout, &chip.placement)
        .expect("flow");
    let stats = over.stats.expect("level B ran");
    // Track count of the ami33 grid is a few hundred; a maze wave
    // touches tens of thousands of cells per connection.
    assert!(
        stats.expanded_per_connection() < 500.0,
        "avg expanded {}",
        stats.expanded_per_connection()
    );
    // The incomplete MBFS needed the maze fallback for only a small
    // fraction of connections.
    assert!(
        (stats.maze_fallbacks as f64) < 0.15 * stats.connections as f64,
        "{} fallbacks of {} connections",
        stats.maze_fallbacks,
        stats.connections
    );
}

/// §1 claim: multi-layer channel routing stacks different nets' wires
/// "one on top of the other over relatively long distances"; the
/// over-cell methodology does not.
#[test]
fn crosstalk_shape_channel_flows_stack_wires() {
    let chip = suite::ami33_like();
    let pitch = chip.layout.rules.over_cell_pitch();
    let over = Flow::default()
        .run(&chip.layout, &chip.placement)
        .expect("over-cell");
    let three = FlowKind::Channel3
        .build()
        .run(&chip.layout, &chip.placement)
        .expect("3-layer");
    let r_over = coupling_report(&over.design, pitch);
    let r_three = coupling_report(&three.design, pitch);
    assert!(
        r_three.stacked_total() > 10 * r_over.stacked_total(),
        "HVH stacking {} must dwarf over-cell {}",
        r_three.stacked_total(),
        r_over.stacked_total()
    );
    assert!(r_three.max_stacked_run > r_over.max_stacked_run);
}
