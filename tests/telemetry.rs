//! The ocr-obs telemetry layer is observational only: enabling it must
//! not perturb the routed design by a single byte at any worker count,
//! and its exports must carry the per-phase spans and Level B counters
//! the CLI and CI smoke check rely on.

use overcell_router::core::{FlowKind, FlowOptions, LevelBConfig, LevelBRouter, NetOrdering};
use overcell_router::gen::random::small_random;
use overcell_router::gen::suite;
use overcell_router::geom::{Layer, LayerSet, Point, Rect};
use overcell_router::io::write_routes;
use overcell_router::netlist::{Layout, NetClass, Obstacle};
use overcell_router::obs::{self, json};

fn routes_text(
    kind: FlowKind,
    options: FlowOptions,
    threads: usize,
) -> (String, Option<obs::Telemetry>) {
    let chip = small_random(6, 2, 3, 10, 42);
    let result = overcell_router::exec::with_threads(threads, || {
        kind.build_with(options)
            .run(&chip.layout, &chip.placement)
            .expect("flow")
    });
    (
        write_routes(&result.layout, &result.design),
        result.telemetry,
    )
}

#[test]
fn routes_are_byte_identical_with_telemetry_on_and_off() {
    for kind in FlowKind::ALL {
        for threads in [1, 4] {
            let (plain, no_telemetry) = routes_text(kind, FlowOptions::default(), threads);
            let (instrumented, telemetry) =
                routes_text(kind, FlowOptions::new().telemetry(true), threads);
            assert!(no_telemetry.is_none());
            assert!(telemetry.is_some(), "{kind}: telemetry attached");
            assert_eq!(
                plain, instrumented,
                "{kind} at {threads} thread(s): telemetry must not perturb routing"
            );
        }
    }
}

#[test]
fn verify_report_is_identical_with_telemetry_on_and_off() {
    let chip = small_random(6, 2, 3, 10, 7);
    let run = |options: FlowOptions| {
        FlowKind::OverCell
            .build_with(options)
            .run(&chip.layout, &chip.placement)
            .expect("flow")
    };
    let plain = run(FlowOptions::new().verify(true));
    let instrumented = run(FlowOptions::new().verify(true).telemetry(true));
    assert_eq!(plain.verify, instrumented.verify);
}

#[test]
fn overcell_telemetry_carries_phases_and_rip_counters() {
    let (_, telemetry) = routes_text(FlowKind::OverCell, FlowOptions::new().telemetry(true), 4);
    let t = telemetry.expect("telemetry attached");
    let aggs = t.aggregate();
    for phase in ["flow.partition", "flow.level_a", "flow.level_b"] {
        let agg = aggs
            .iter()
            .find(|a| a.name == phase)
            .unwrap_or_else(|| panic!("missing span `{phase}`"));
        assert!(agg.total_ns > 0, "`{phase}` must have nonzero timing");
    }
    // Rip/retry and search-attempt counters are declared even when the
    // run never rips or fails an attempt.
    for counter in [
        "level_b.rips",
        "level_b.retries",
        "level_b.doomed_terminals",
        "level_b.attempts_ok",
        "level_b.attempts_failed_clipped",
        "level_b.attempts_failed_full",
        "level_b.select_nodes",
        "level_b.select_candidates",
    ] {
        assert!(t.counter(counter).is_some(), "missing counter `{counter}`");
    }
    // The exec pool reported per-worker activity for the parallel
    // stages (Level A channels fan out across it).
    assert!(t.counter("exec.tasks").is_some_and(|v| v > 0));
}

#[test]
fn selection_work_counters_are_exact_at_any_worker_count() {
    let work = |threads: usize| {
        let (_, telemetry) = routes_text(
            FlowKind::OverCell,
            FlowOptions::new().telemetry(true),
            threads,
        );
        let t = telemetry.expect("telemetry attached");
        [
            "level_b.select_nodes",
            "level_b.select_candidates",
            "level_b.attempts_ok",
            "level_b.pst_edges",
        ]
        .map(|name| {
            t.counter(name)
                .unwrap_or_else(|| panic!("missing counter `{name}`"))
        })
    };
    let [nodes, candidates, selections, edges] = work(1);
    // Every successful attempt realized at least one candidate, and every
    // candidate is a visited node.
    assert!(
        candidates >= selections && selections > 0,
        "{candidates} < {selections}"
    );
    assert!(nodes >= candidates, "{nodes} < {candidates}");
    // Selection walked edges, so the successful searches derived some.
    assert!(edges > 0, "no PST edges derived");
    for threads in [2, 4] {
        assert_eq!(
            work(threads),
            [nodes, candidates, selections, edges],
            "{threads} threads"
        );
    }
}

/// The occupancy arrays hold 8 bytes per grid cell (a `u32` code per
/// plane). The maze buffers hold the tiles of the largest wave plus the
/// tile table, so they are nothing unless a maze fallback or rip-up
/// probe ran.
fn assert_working_set_gauges(t: &obs::Telemetry) -> [u64; 2] {
    let [grid, maze] = ["level_b.grid_bytes", "level_b.maze_bytes"].map(|name| {
        t.counter(name)
            .unwrap_or_else(|| panic!("missing counter `{name}`"))
    });
    assert!(grid > 0 && grid % 8 == 0, "{grid} occupancy bytes");
    let waves = t
        .aggregate()
        .iter()
        .any(|a| (a.name == "level_b.maze" || a.name == "level_b.probe") && a.count > 0);
    assert_eq!(maze > 0, waves, "{maze} maze bytes");
    [grid, maze]
}

#[test]
fn working_set_gauges_are_exact_at_any_worker_count() {
    // ami33 runs maze fallbacks, so its wave buffers are sized.
    let chip = suite::ami33_like();
    let gauges = |threads: usize| {
        let result = overcell_router::exec::with_threads(threads, || {
            FlowKind::OverCell
                .build_with(FlowOptions::new().telemetry(true))
                .run(&chip.layout, &chip.placement)
                .expect("flow")
        });
        assert_working_set_gauges(&result.telemetry.expect("telemetry attached"))
    };
    let at_one @ [grid, maze] = gauges(1);
    // The waves hold a few tiles, far below a distance and a move code
    // (18 bytes) for every cell of the die.
    assert!(
        maze > 0 && maze < grid / 8 * 18,
        "{maze} maze bytes, {grid} occupancy bytes"
    );
    for threads in [2, 4] {
        assert_eq!(gauges(threads), at_one, "{threads} threads");
    }
}

/// Two nets contending for one gap in a wall across the die: the second
/// net's searches fail in every window, its maze fallback fails, and the
/// rip-up probe names the first net as the victim. That walks every
/// Level B sub-span.
fn chokepoint_layout() -> Layout {
    let mut l = Layout::new(Rect::new(0, 0, 400, 400));
    for (x0, x1) in [(-5, 195), (205, 405)] {
        l.add_obstacle(Obstacle::new(
            Rect::new(x0, 195, x1, 205),
            LayerSet::level_b(),
        ));
    }
    l.add_obstacle(Obstacle::new(
        Rect::new(195, 195, 205, 205),
        LayerSet::single(Layer::Metal3),
    ));
    for (name, x, y) in [("first", 100, 100), ("second", 300, 110)] {
        let n = l.add_net(name, NetClass::Signal);
        l.add_pin(n, None, Point::new(x, y), Layer::Metal2);
        l.add_pin(n, None, Point::new(x, y + 200), Layer::Metal2);
    }
    l
}

#[test]
fn level_b_sub_spans_and_attempt_counters_are_recorded() {
    let layout = chokepoint_layout();
    let nets: Vec<_> = layout.net_ids().collect();
    let collector = obs::Collector::new();
    obs::with_collector(&collector, || {
        let config = LevelBConfig {
            rip_up_budget: 4,
            ordering: NetOrdering::User(nets.clone()),
            ..LevelBConfig::default()
        };
        LevelBRouter::new(&layout, &nets, config)
            .expect("router")
            .route_all()
            .expect("route_all")
    });
    let t = collector.snapshot();
    let aggs = t.aggregate();
    for span in [
        "level_b.route_net",
        "level_b.mbfs",
        "level_b.select",
        "level_b.maze",
        "level_b.probe",
        "level_b.commit",
    ] {
        assert!(
            aggs.iter().any(|a| a.name == span && a.count > 0),
            "missing span `{span}`"
        );
    }
    for counter in [
        "level_b.attempts_ok",
        "level_b.attempts_failed_clipped",
        "level_b.attempts_failed_full",
        "level_b.select_nodes",
        "level_b.select_candidates",
    ] {
        assert!(
            t.counter(counter).is_some_and(|v| v > 0),
            "counter `{counter}` never counted"
        );
    }
    assert_working_set_gauges(&t);
}

#[test]
fn stats_json_round_trips_through_the_bundled_parser() {
    let (_, telemetry) = routes_text(FlowKind::OverCell, FlowOptions::new().telemetry(true), 2);
    let t = telemetry.expect("telemetry attached");
    let text = obs::stats_json(&[("testchip", "overcell", &t)]);
    let doc = json::parse(&text).expect("stats JSON parses");
    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some("ocr-stats-v1")
    );
    let runs = doc
        .get("runs")
        .and_then(json::Value::as_array)
        .expect("runs array");
    assert_eq!(runs.len(), 1);
    assert_eq!(
        runs[0].get("chip").and_then(json::Value::as_str),
        Some("testchip")
    );
    let spans = runs[0]
        .get("spans")
        .and_then(json::Value::as_array)
        .expect("spans array");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(json::Value::as_str) == Some("flow.level_b")));

    // The Chrome trace is valid JSON too, with one duration event per
    // recorded span occurrence.
    let trace = obs::chrome_trace(&[("testchip", "overcell", &t)]);
    let events = json::parse(&trace).expect("trace parses");
    let events = events.as_array().expect("trace is a JSON array");
    let durations = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .count();
    assert_eq!(durations, t.events.len());
}
