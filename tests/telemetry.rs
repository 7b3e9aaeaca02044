//! The ocr-obs telemetry layer is observational only: enabling it must
//! not perturb the routed design by a single byte at any worker count,
//! and its exports must carry the per-phase spans and Level B counters
//! the CLI and CI smoke check rely on.

use overcell_router::core::{FlowKind, FlowOptions};
use overcell_router::gen::random::small_random;
use overcell_router::io::write_routes;
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
    // Rip/retry counters are declared even when the run never rips.
    for counter in [
        "level_b.rips",
        "level_b.retries",
        "level_b.doomed_terminals",
    ] {
        assert!(t.counter(counter).is_some(), "missing counter `{counter}`");
    }
    // The exec pool reported per-worker activity for the parallel
    // stages (Level A channels fan out across it).
    assert!(t.counter("exec.tasks").is_some_and(|v| v > 0));
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
