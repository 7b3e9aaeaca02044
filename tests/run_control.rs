//! Run-control contract: deterministic step budgets, cooperative
//! cancellation and checkpoint/resume for every flow.
//!
//! The guarantees pinned here are the ones DESIGN.md §10 documents:
//!
//! * A step budget trips at the same point regardless of the worker
//!   count, and a run interrupted by it and resumed from its
//!   `ocr-ckpt-v1` checkpoint produces **byte-identical** routes to a
//!   run that was never interrupted.
//! * A tripped run is exhaustive: every net the flow did not finish is
//!   declared failed with a typed reason (`BudgetExceeded` /
//!   `Cancelled`), and the wiring it did commit passes the independent
//!   oracle.

use std::path::PathBuf;

use overcell_router::core::{
    resume_from_doc, CheckpointSpec, DegradeReason, FlowKind, FlowOptions, FlowResult, RunSession,
};
use overcell_router::exec::{with_threads, RunControl};
use overcell_router::gen::random::small_random;
use overcell_router::gen::suite;
use overcell_router::gen::GeneratedChip;
use overcell_router::io::ckpt::{fnv1a_64, parse_checkpoint};
use overcell_router::io::{write_chip, write_routes};
use overcell_router::netlist::NetId;

fn test_chip() -> GeneratedChip {
    small_random(6, 2, 3, 10, 42)
}

/// A collision-free scratch path for one checkpoint file.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ocr-run-control-{}-{tag}.ckpt", std::process::id()))
}

fn run_controlled(
    kind: FlowKind,
    options: FlowOptions,
    chip: &GeneratedChip,
    session: &RunSession,
    threads: usize,
) -> FlowResult {
    with_threads(threads, || {
        kind.build_with(options)
            .run_controlled(&chip.layout, &chip.placement, session)
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
    })
}

/// Every net must be accounted for: routed, or failed with a reason in
/// the degradation report. A trip must never silently drop a net.
fn assert_exhaustive(kind: FlowKind, chip: &GeneratedChip, result: &FlowResult) {
    let degradation = result
        .degradation
        .as_ref()
        .unwrap_or_else(|| panic!("{kind}: tripped run must carry a degradation report"));
    let mut failed: Vec<NetId> = result.design.failed.clone();
    failed.sort();
    let mut reported: Vec<NetId> = degradation.nets.iter().map(|d| d.net).collect();
    reported.sort();
    reported.dedup();
    assert_eq!(
        failed, reported,
        "{kind}: failed nets and degradation report disagree"
    );
    for net in chip.layout.net_ids() {
        assert!(
            result.design.route(net).is_some() || failed.binary_search(&net).is_ok(),
            "{kind}: {net} neither routed nor declared failed"
        );
    }
}

#[test]
fn budget_interrupt_and_resume_is_byte_identical() {
    let chip = test_chip();
    let chip_hash = fnv1a_64(&write_chip(&chip.layout, &chip.placement));
    for kind in FlowKind::ALL {
        for threads in [1usize, 4] {
            let full = with_threads(threads, || {
                kind.build_with(FlowOptions::default())
                    .run(&chip.layout, &chip.placement)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"))
            });
            let full_text = write_routes(&full.layout, &full.design);
            for budget in [0u64, 3, 9, 27] {
                let path = scratch(&format!("{kind}-{threads}-{budget}"));
                let session = RunSession {
                    control: RunControl::new().with_step_budget(budget),
                    checkpoint: Some(CheckpointSpec {
                        path: path.clone(),
                        every: 1,
                        flow: kind.name().to_string(),
                        chip_hash,
                    }),
                    resume: None,
                };
                let interrupted =
                    run_controlled(kind, FlowOptions::default(), &chip, &session, threads);
                if session.control.is_tripped() {
                    assert_exhaustive(kind, &chip, &interrupted);
                }

                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{kind}: read {}: {e}", path.display()));
                let doc = parse_checkpoint(&chip.layout, &text)
                    .unwrap_or_else(|e| panic!("{kind}: parse checkpoint: {e}"));
                let resume =
                    resume_from_doc(doc).unwrap_or_else(|e| panic!("{kind}: resume_from_doc: {e}"));
                assert_eq!(resume.flow, kind.name(), "{kind}: checkpoint flow");
                assert_eq!(resume.chip_hash, chip_hash, "{kind}: checkpoint chip hash");

                // Resume with the budget lifted: the continuation must
                // land exactly where the uninterrupted run did.
                let steps = resume.steps;
                let resumed_session = RunSession {
                    control: RunControl::new().resumed_at(steps),
                    checkpoint: None,
                    resume: Some(resume),
                };
                let resumed = run_controlled(
                    kind,
                    FlowOptions::default(),
                    &chip,
                    &resumed_session,
                    threads,
                );
                let resumed_text = write_routes(&resumed.layout, &resumed.design);
                assert_eq!(
                    full_text, resumed_text,
                    "{kind} at {threads} thread(s), budget {budget}: \
                     interrupted+resumed diverged from the uninterrupted run"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[test]
fn checkpoint_text_is_thread_count_independent() {
    let chip = test_chip();
    let chip_hash = fnv1a_64(&write_chip(&chip.layout, &chip.placement));
    for kind in FlowKind::ALL {
        let run = |threads: usize| {
            let path = scratch(&format!("threads-{kind}-{threads}"));
            let session = RunSession {
                control: RunControl::new().with_step_budget(9),
                checkpoint: Some(CheckpointSpec {
                    path: path.clone(),
                    every: 1,
                    flow: kind.name().to_string(),
                    chip_hash,
                }),
                resume: None,
            };
            run_controlled(kind, FlowOptions::default(), &chip, &session, threads);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{kind}: read {}: {e}", path.display()));
            let _ = std::fs::remove_file(&path);
            text
        };
        assert_eq!(run(1), run(4), "{kind}: checkpoint text diverged");
    }
}

#[test]
fn cancelled_run_degrades_every_net_and_is_oracle_clean() {
    let chip = test_chip();
    for kind in FlowKind::ALL {
        let control = RunControl::new();
        control.cancel();
        let session = RunSession::with_control(control);
        let result = run_controlled(kind, FlowOptions::new().verify(true), &chip, &session, 1);
        assert_exhaustive(kind, &chip, &result);
        let degradation = result.degradation.as_ref().expect("degradation attached");
        assert!(
            !degradation.nets.is_empty(),
            "{kind}: a pre-cancelled run must degrade its nets"
        );
        for d in &degradation.nets {
            assert_eq!(
                d.reason,
                DegradeReason::Cancelled,
                "{kind}: {} carries the wrong reason",
                d.net
            );
        }
        let report = result.verify.as_ref().expect("verify requested");
        assert!(report.is_clean(), "{kind}: {report}");
    }
}

#[test]
fn budget_trip_is_oracle_clean_with_typed_reasons() {
    let chip = test_chip();
    // Only Level B charges steps, so the over-cell flow is the one a
    // budget can interrupt mid-flight with real committed wiring.
    let kind = FlowKind::OverCell;
    for budget in [2u64, 6, 14] {
        let session = RunSession::with_control(RunControl::new().with_step_budget(budget));
        let result = run_controlled(kind, FlowOptions::new().verify(true), &chip, &session, 1);
        if !session.control.is_tripped() {
            continue;
        }
        assert_exhaustive(kind, &chip, &result);
        let degradation = result.degradation.as_ref().expect("degradation attached");
        assert!(degradation.nets.iter().all(|d| matches!(
            d.reason,
            DegradeReason::BudgetExceeded | DegradeReason::Cancelled
        ) || result.design.route(d.net).is_none()));
        assert!(
            degradation
                .nets
                .iter()
                .any(|d| d.reason == DegradeReason::BudgetExceeded),
            "budget {budget}: trip must surface BudgetExceeded reasons"
        );
        let report = result.verify.as_ref().expect("verify requested");
        assert!(
            report.is_clean(),
            "budget {budget}: committed wiring must stay oracle-clean: {report}"
        );
    }
}

#[test]
fn an_expired_deadline_cancels_before_any_work() {
    let chip = test_chip();
    for kind in FlowKind::ALL {
        let control = RunControl::new().with_deadline_in(std::time::Duration::ZERO);
        let session = RunSession::with_control(control);
        let result = run_controlled(kind, FlowOptions::new().verify(true), &chip, &session, 1);
        assert!(
            session.control.is_tripped(),
            "{kind}: a zero deadline must trip"
        );
        assert_exhaustive(kind, &chip, &result);
        let report = result.verify.as_ref().expect("verify requested");
        assert!(report.is_clean(), "{kind}: {report}");
    }
}

#[test]
fn header_only_checkpoint_resumes_as_a_full_rerun() {
    // A checkpoint written before any net committed (or by a channel
    // flow, which has no per-net commit boundary) carries only the
    // header; resuming from it must reproduce the full run exactly.
    let chip = test_chip();
    let chip_hash = fnv1a_64(&write_chip(&chip.layout, &chip.placement));
    for kind in FlowKind::ALL {
        let full = kind
            .build_with(FlowOptions::default())
            .run(&chip.layout, &chip.placement)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let full_text = write_routes(&full.layout, &full.design);

        let path = scratch(&format!("header-{kind}"));
        let control = RunControl::new();
        control.cancel();
        let session = RunSession {
            control,
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
                flow: kind.name().to_string(),
                chip_hash,
            }),
            resume: None,
        };
        run_controlled(kind, FlowOptions::default(), &chip, &session, 1);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{kind}: read {}: {e}", path.display()));
        let doc = parse_checkpoint(&chip.layout, &text).expect("parse checkpoint");
        let resume = resume_from_doc(doc).expect("resume");
        assert!(resume.is_fresh(), "{kind}: pre-work checkpoint is fresh");

        let resumed_session = RunSession {
            control: RunControl::new().resumed_at(resume.steps),
            checkpoint: None,
            resume: Some(resume),
        };
        let resumed = run_controlled(kind, FlowOptions::default(), &chip, &resumed_session, 1);
        assert_eq!(
            full_text,
            write_routes(&resumed.layout, &resumed.design),
            "{kind}: header-only resume diverged from a fresh run"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn steps_accumulate_across_a_resume() {
    let chip = test_chip();
    let chip_hash = fnv1a_64(&write_chip(&chip.layout, &chip.placement));
    let kind = FlowKind::OverCell;
    let path = scratch("cumulative");
    let session = RunSession {
        control: RunControl::new().with_step_budget(5),
        checkpoint: Some(CheckpointSpec {
            path: path.clone(),
            every: 1,
            flow: kind.name().to_string(),
            chip_hash,
        }),
        resume: None,
    };
    run_controlled(kind, FlowOptions::default(), &chip, &session, 1);
    assert!(session.control.is_tripped(), "budget 5 must trip this chip");
    let at_trip = session.control.steps();
    assert!(at_trip >= 5, "the tripping charge itself must land");

    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    let resume =
        resume_from_doc(parse_checkpoint(&chip.layout, &text).expect("parse")).expect("resume");
    assert_eq!(resume.steps, at_trip, "checkpoint records cumulative steps");

    // Resuming under the *same* budget trips again immediately: the
    // counter continues from the checkpoint, it does not reset.
    let same_budget = RunSession {
        control: RunControl::new()
            .with_step_budget(5)
            .resumed_at(resume.steps),
        checkpoint: None,
        resume: Some(resume),
    };
    let result = run_controlled(kind, FlowOptions::default(), &chip, &same_budget, 1);
    assert!(
        same_budget.control.is_tripped(),
        "a resumed run keeps the cumulative step count"
    );
    assert_exhaustive(kind, &chip, &result);
}

#[test]
fn trips_add_no_strict_violations_and_empty_trips_are_strict_clean() {
    // The acceptance contract under `ocr verify --strict`: a trip's
    // committed wiring is a prefix of the uninterrupted run's, so its
    // strict report must be a subset of the full run's — interrupting
    // never *introduces* a violation. And a trip that committed nothing
    // (pre-cancelled) has no geometry at all, so it is strict-clean
    // outright, for every flow.
    let chip = test_chip();
    for kind in FlowKind::ALL {
        let control = RunControl::new();
        control.cancel();
        let session = RunSession::with_control(control);
        let result = run_controlled(
            kind,
            FlowOptions::new().verify(true).strict(true),
            &chip,
            &session,
            1,
        );
        let report = result.verify.as_ref().expect("verify requested");
        assert!(
            report.is_clean(),
            "{kind}: a geometry-free trip must pass strict verify: {report}"
        );
    }

    let kind = FlowKind::OverCell;
    let full = kind
        .build_with(FlowOptions::new().verify(true).strict(true))
        .run(&chip.layout, &chip.placement)
        .expect("flow");
    let full_strict: Vec<String> = full
        .verify
        .expect("verify requested")
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect();
    for budget in [2u64, 6, 14] {
        let session = RunSession::with_control(RunControl::new().with_step_budget(budget));
        let result = run_controlled(
            kind,
            FlowOptions::new().verify(true).strict(true),
            &chip,
            &session,
            1,
        );
        let report = result.verify.as_ref().expect("verify requested");
        for v in &report.violations {
            assert!(
                full_strict.contains(&v.to_string()),
                "budget {budget}: the trip introduced a strict violation \
                 the uninterrupted run does not have: {v}"
            );
        }
    }
}

#[test]
fn plain_run_is_an_unlimited_controlled_run() {
    // One run path: `run` is `run_controlled` under the default session
    // (unlimited control, no checkpoint, no resume), so the two must
    // agree on routes, metrics, stats and every counter. `exec.*`
    // counters are excluded — the worker split depends on scheduling.
    let counters = |result: &FlowResult| -> Vec<(String, u64)> {
        let telemetry = result.telemetry.as_ref().expect("telemetry flag set");
        telemetry
            .counters
            .iter()
            .filter(|(name, _)| !name.starts_with("exec."))
            .cloned()
            .collect()
    };
    let options = FlowOptions::new().telemetry(true);
    for chip in suite::all() {
        for kind in FlowKind::ALL {
            let flow = kind.build_with(options);
            let plain = flow
                .run(&chip.layout, &chip.placement)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let controlled = flow
                .run_controlled(&chip.layout, &chip.placement, &RunSession::default())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let name = &chip.spec.name;
            assert_eq!(
                write_routes(&plain.layout, &plain.design),
                write_routes(&controlled.layout, &controlled.design),
                "{kind} on {name}: routes differ"
            );
            assert_eq!(plain.metrics, controlled.metrics, "{kind} on {name}");
            assert_eq!(plain.stats, controlled.stats, "{kind} on {name}");
            assert_eq!(
                counters(&plain),
                counters(&controlled),
                "{kind} on {name}: counters differ"
            );
        }
    }
}
