//! Chaos soak: the ocr-fault layer must be invisible when disarmed,
//! and under injected faults the flows must degrade — typed per-net
//! reasons, oracle-clean salvaged subsets, poisoned tasks isolated —
//! instead of aborting.

use overcell_router::core::{DegradeReason, FlowKind, FlowOptions};
use overcell_router::exec::{parallel_map_isolated, TaskOutcome};
use overcell_router::fault;
use overcell_router::gen::random::small_random;
use overcell_router::io::write_routes;
use overcell_router::netlist::NetId;

/// Routes the fixed test chip and returns the serialized design.
fn routes_text(kind: FlowKind, options: FlowOptions, threads: usize) -> String {
    let chip = small_random(6, 2, 3, 10, 42);
    let result = overcell_router::exec::with_threads(threads, || {
        kind.build_with(options)
            .run(&chip.layout, &chip.placement)
            .expect("flow")
    });
    write_routes(&result.layout, &result.design)
}

#[test]
fn salvage_mode_is_byte_identical_on_clean_chips() {
    // With no plan armed and nothing to degrade, turning salvage on
    // must not perturb the routed design by a single byte — at one
    // worker and at several.
    for kind in FlowKind::ALL {
        for threads in [1, 4] {
            let plain = routes_text(kind, FlowOptions::default(), threads);
            let salvaged = routes_text(kind, FlowOptions::new().salvage(true), threads);
            assert_eq!(
                plain, salvaged,
                "{kind} at {threads} thread(s): salvage must not perturb routing"
            );
        }
    }
}

#[test]
fn a_disarmed_plan_and_an_empty_armed_plan_are_both_inert() {
    let plain = routes_text(FlowKind::OverCell, FlowOptions::default(), 1);
    assert!(!fault::is_armed(), "tests start disarmed");
    // An armed plan with no rules decides nothing: still byte-identical.
    let empty = fault::plan(9).build();
    let armed = fault::with_plan(&empty, || {
        assert!(fault::is_armed());
        routes_text(FlowKind::OverCell, FlowOptions::default(), 1)
    });
    assert_eq!(plain, armed);
    assert_eq!(empty.total_fires(), 0);
}

/// A chip perturbed into a genuinely hard salvage problem: sealed
/// over-cell blocks force detours and rip-up storms, sealed terminals
/// create doomed nets.
fn storm_chip(seed: u64) -> overcell_router::gen::GeneratedChip {
    let mut chip = small_random(8, 3, 4, 16, seed);
    fault::seal_random_cells(&mut chip.layout, seed, 3);
    fault::seal_random_terminals(&mut chip.layout, seed.wrapping_add(1), 3);
    chip
}

#[test]
fn storm_chips_degrade_but_stay_oracle_clean_and_exhaustive() {
    for seed in [1u64, 7, 23] {
        let chip = storm_chip(seed);
        let options = FlowOptions::new().salvage(true).verify(true);
        let result = FlowKind::OverCell
            .build_with(options)
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("seed {seed}: salvage must not error: {e}"));
        let d = result.degradation.expect("salvage report attached");
        // The sealed terminals doom at least one net on these seeds.
        assert!(!d.is_empty(), "seed {seed}: expected degradations");
        assert!(d.salvaged_routes > 0, "seed {seed}: something salvaged");
        // Exhaustiveness: the report mirrors the failed list exactly.
        let mut failed = result.design.failed.clone();
        failed.sort();
        let mut reported: Vec<NetId> = d.nets.iter().map(|n| n.net).collect();
        reported.sort();
        assert_eq!(failed, reported, "seed {seed}: report ≡ failed list");
        // Every degraded net carries a terminal-level reason here (no
        // panics were injected).
        for nd in &d.nets {
            assert!(
                !matches!(nd.reason, DegradeReason::Poisoned { .. }),
                "seed {seed}: no injected panic, no poisoned reason"
            );
        }
        // The salvaged subset passes the independent oracle: failed
        // nets are declared honestly, committed wiring is DRC-clean.
        let report = result.verify.expect("verify report attached");
        assert!(report.is_clean(), "seed {seed}: {report}");
    }
}

#[test]
fn route_net_panics_degrade_as_poisoned_and_the_rest_survives() {
    let chip = small_random(8, 3, 4, 16, 5);
    let options = FlowOptions::new().salvage(true).verify(true);
    let plan = fault::plan(3).panic_at("level_b.route_net", 0.5, 3).build();
    let result = fault::with_plan(&plan, || {
        FlowKind::OverCell
            .build_with(options)
            .run(&chip.layout, &chip.placement)
            .expect("salvage isolates injected panics")
    });
    let d = result.degradation.expect("salvage report attached");
    assert!(
        d.poisoned() >= 1,
        "a 50%-probability 3-fire panic rule must poison something"
    );
    assert_eq!(
        d.poisoned(),
        result.stats.expect("level B ran").nets_poisoned
    );
    assert!(d.salvaged_routes > 0, "the rest of the chip still routed");
    let report = result.verify.expect("verify report attached");
    assert!(report.is_clean(), "{report}");
}

#[test]
fn poisoned_chaos_trials_are_isolated_from_the_suite_run() {
    // The CLI's chaos harness in miniature: trial 0 hits the plan's
    // guaranteed two-fire panic rule, so its retry panics too and it is
    // reported poisoned; every other trial completes.
    let plan = fault::chaos_plan(1);
    let idx: Vec<usize> = (0..4).collect();
    let outcomes = fault::with_plan(&plan, || {
        parallel_map_isolated(&idx, |&t| {
            if t == 0 {
                fault::point("chaos.trial");
            }
            let chip = storm_chip(t as u64 + 1);
            FlowKind::OverCell
                .build_with(FlowOptions::new().salvage(true))
                .run(&chip.layout, &chip.placement)
                .map(|r| r.degradation.expect("salvage report").salvaged_routes)
                .expect("salvage must not error")
        })
    });
    assert!(
        matches!(&outcomes[0], TaskOutcome::Poisoned { message } if message.contains("chaos.trial")),
        "trial 0 must be poisoned, got {:?}",
        outcomes[0]
    );
    let completed = outcomes[1..]
        .iter()
        .filter(|o| matches!(o, TaskOutcome::Done { .. }))
        .count();
    assert_eq!(completed, 3, "the poisoned trial must not take others down");
    // The pool is still usable after hosting a poisoned task.
    let echo = overcell_router::exec::parallel_map(&idx, |&t| t * 2);
    assert_eq!(echo, vec![0, 2, 4, 6]);
}

#[test]
fn injected_delays_under_a_tight_deadline_degrade_instead_of_hanging() {
    // Interplay of the fault layer and run control: every
    // `level_b.route_net` call stalls 30ms while the deadline is 5ms.
    // The run must trip promptly, declare every unfinished net with a
    // typed reason, keep whatever it committed oracle-clean — and
    // above all return instead of hanging.
    use overcell_router::core::RunSession;
    use overcell_router::exec::RunControl;
    use std::time::{Duration, Instant};

    let chip = small_random(6, 2, 3, 10, 42);
    let plan = fault::plan(5)
        .delay_at("level_b.route_net", 1.0, u64::MAX, 30_000)
        .build();
    let control = RunControl::new().with_deadline_in(Duration::from_millis(5));
    let session = RunSession::with_control(control);
    let started = Instant::now();
    let result = fault::with_plan(&plan, || {
        FlowKind::OverCell
            .build_with(FlowOptions::new().verify(true))
            .run_controlled(&chip.layout, &chip.placement, &session)
            .expect("a deadline trip is a degraded result, not an error")
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the deadline must cut the delayed run short"
    );
    assert!(session.control.is_tripped(), "the deadline must trip");

    let degradation = result
        .degradation
        .expect("trip carries a degradation report");
    let mut failed: Vec<NetId> = result.design.failed.clone();
    failed.sort();
    let mut reported: Vec<NetId> = degradation.nets.iter().map(|d| d.net).collect();
    reported.sort();
    reported.dedup();
    assert_eq!(failed, reported, "every unfinished net must be reported");
    for net in chip.layout.net_ids() {
        assert!(
            result.design.route(net).is_some() || failed.binary_search(&net).is_ok(),
            "{net} neither routed nor declared failed"
        );
    }
    assert!(
        degradation
            .nets
            .iter()
            .all(|d| d.reason == DegradeReason::Cancelled),
        "deadline trips surface as Cancelled"
    );
    let report = result.verify.expect("verify requested");
    assert!(report.is_clean(), "{report}");
}
