//! Net-ordering contract (DESIGN.md §12): every named `NetOrdering`
//! (`ocr-order-v1`) is a pure permutation that keeps the flow
//! oracle-clean, `longest` by name is the default flow's order, and the
//! run-all portfolio is deterministic —
//!
//! * `--order portfolio` output is byte-identical at any `OCR_THREADS`,
//! * every per-strategy row is that strategy's standalone result, and
//!   the winner is the `(unrouted, steps, index)` minimum of the rows,
//! * the portfolio result is exactly the winning strategy's standalone
//!   result (the other runs leave no residue in the design), and
//! * by the winner rule it is never worse in unrouted-net count than
//!   `longest`, the paper's default, on any suite chip.

use overcell_router::core::{
    ordering_from_name, portfolio_roster, FlowKind, FlowOptions, NetOrdering, OverCellFlow,
    PortfolioReport, RunSession, StrategyOutcome,
};
use overcell_router::exec::{with_threads, RunControl};
use overcell_router::gen::suite;
use overcell_router::io::write_routes;

/// Routes one suite chip with an explicit ordering and salvage on, so
/// an ordering that strands nets reports them instead of erroring.
fn route_with(chip: &overcell_router::gen::GeneratedChip, ordering: NetOrdering) -> String {
    let result = FlowKind::OverCell
        .build_with_ordering(FlowOptions::new().salvage(true), Some(ordering))
        .run(&chip.layout, &chip.placement)
        .expect("flow");
    write_routes(&result.layout, &result.design)
}

fn race(chip: &overcell_router::gen::GeneratedChip, k: usize) -> (String, PortfolioReport) {
    let flow = OverCellFlow {
        options: FlowOptions::new().salvage(true),
        ..OverCellFlow::default()
    };
    let (result, report) = flow
        .run_portfolio(&chip.layout, &chip.placement, k)
        .expect("portfolio");
    (write_routes(&result.layout, &result.design), report)
}

#[test]
fn longest_distance_strategy_matches_the_default_flow() {
    for chip in suite::all() {
        let default = FlowKind::OverCell
            .build_with(FlowOptions::new().salvage(true))
            .run(&chip.layout, &chip.placement)
            .expect("default flow");
        let explicit = route_with(&chip, ordering_from_name("longest").expect("longest"));
        assert_eq!(
            write_routes(&default.layout, &default.design),
            explicit,
            "{}: the `longest` ordering must preserve the default order",
            chip.spec.name
        );
    }
}

#[test]
fn every_strategy_stays_oracle_clean_across_the_suite() {
    for chip in suite::all() {
        for name in [
            "longest",
            "shortest",
            "congestion",
            "criticality",
            "shuffle:3",
        ] {
            let ordering = ordering_from_name(name).expect(name);
            let result = FlowKind::OverCell
                .build_with_ordering(
                    FlowOptions::new().salvage(true).verify(true),
                    Some(ordering),
                )
                .run(&chip.layout, &chip.placement)
                .unwrap_or_else(|e| panic!("{} under {name}: {e}", chip.spec.name));
            let report = result.verify.expect("verify report attached");
            assert!(
                report.is_clean(),
                "{} under {name}: {report}",
                chip.spec.name
            );
        }
    }
}

#[test]
fn portfolio_is_byte_identical_across_thread_counts() {
    for chip in suite::all() {
        let (seq_routes, seq_report) = with_threads(1, || race(&chip, 4));
        let (par_routes, par_report) = with_threads(4, || race(&chip, 4));
        assert_eq!(
            seq_routes, par_routes,
            "{}: portfolio routes must not depend on OCR_THREADS",
            chip.spec.name
        );
        assert_eq!(
            seq_report, par_report,
            "{}: the per-strategy report must not depend on OCR_THREADS",
            chip.spec.name
        );
    }
}

#[test]
fn portfolio_reports_every_strategys_standalone_numbers() {
    for chip in suite::all() {
        let standalone: Vec<StrategyOutcome> = portfolio_roster(4)
            .into_iter()
            .map(|ordering| {
                let name = ordering.name();
                let session = RunSession::with_control(RunControl::new());
                let result = FlowKind::OverCell
                    .build_with_ordering(FlowOptions::new().salvage(true), Some(ordering))
                    .run_controlled(&chip.layout, &chip.placement, &session)
                    .unwrap_or_else(|e| panic!("{} under {name}: {e}", chip.spec.name));
                StrategyOutcome {
                    name,
                    unrouted: result.stats.as_ref().map_or(0, |s| s.nets_failed),
                    steps: session.control.steps(),
                }
            })
            .collect();
        let (_, report) = race(&chip, 4);
        assert_eq!(
            report.outcomes, standalone,
            "{}: every row must be the strategy's standalone result",
            chip.spec.name
        );
        let winner = (0..standalone.len())
            .min_by_key(|&j| (standalone[j].unrouted, standalone[j].steps, j))
            .expect("non-empty roster");
        assert_eq!(
            (report.winner, report.winner_unrouted, report.winner_steps),
            (
                winner,
                standalone[winner].unrouted,
                standalone[winner].steps
            ),
            "{}: the winner is the (unrouted, steps, index) minimum",
            chip.spec.name
        );
    }
}

#[test]
fn portfolio_result_is_the_winners_standalone_run() {
    // The other runs must leave no occupancy residue: the merged
    // design is bit-equal to routing with the winning strategy alone.
    let chip = suite::ami33_like();
    let (routes, report) = race(&chip, 4);
    let winner =
        ordering_from_name(report.winner_name()).expect("winner names round-trip the registry");
    assert_eq!(
        routes,
        route_with(&chip, winner),
        "portfolio winner {} (index {}) must equal its standalone run",
        report.winner_name(),
        report.winner
    );
}

#[test]
fn portfolio_is_never_worse_than_longest_on_the_suite() {
    for chip in suite::all() {
        let longest = FlowKind::OverCell
            .build_with_ordering(
                FlowOptions::new().salvage(true),
                Some(NetOrdering::LongestFirst),
            )
            .run(&chip.layout, &chip.placement)
            .expect("longest flow");
        let unrouted = longest.stats.as_ref().map_or(0, |s| s.nets_failed);
        let (_, report) = race(&chip, 4);
        assert!(
            report.winner_unrouted <= unrouted,
            "{}: portfolio {} unrouted vs longest {unrouted}",
            chip.spec.name,
            report.winner_unrouted
        );
        assert_eq!(
            report.outcomes.len(),
            4,
            "{}: four strategies ran",
            chip.spec.name
        );
    }
}
