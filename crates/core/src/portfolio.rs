//! Deterministic run-all portfolio over net orderings.
//!
//! Net order dominates the serial Level B router's rip-up cost, and no
//! single ordering wins on every chip. The portfolio runs `k` named
//! [`NetOrdering`]s from its roster to completion on the `ocr-exec`
//! pool, each under its own step-counting
//! [`RunControl`](ocr_exec::RunControl), and keeps the minimum. It is
//! the over-cell flow's own stage path with a different Level B stage,
//! so partition and Level A (ordering-independent) run exactly once;
//! only Level B runs `k` times.
//!
//! # The winner rule
//!
//! The winner is the strategy minimizing, in lexicographic order:
//!
//! 1. **fewest unrouted nets**, then
//! 2. **lowest total charged steps**, then
//! 3. **lowest strategy index** in the roster.
//!
//! Because the roster puts `longest` (the paper's default) at index 0,
//! the portfolio result is never worse in unrouted-net count than
//! `--order longest` on any chip.
//!
//! # Why the output is bit-identical at any `OCR_THREADS`
//!
//! Every run completes, and an uninterrupted Level B run is a
//! deterministic function of its inputs: its routes, unrouted-net
//! count and step count do not depend on the thread count or on which
//! worker ran it. `parallel_map` returns the runs in roster order, so
//! the minimum, the merged design and the per-strategy
//! [`PortfolioReport`] are the same in every execution.

use crate::ckpt::RunSession;
use crate::config::LevelBConfig;
use crate::error::RouteError;
use crate::flow::{run_with_telemetry, Flow, FlowKind, FlowResult};
use crate::level_b::{LevelBResult, LevelBRouter};
use crate::order::NetOrdering;
use ocr_exec::RunControl;
use ocr_netlist::{Layout, NetId, RowPlacement};

/// The canonical `k`-strategy roster: `longest` (index 0, the paper's
/// default), `congestion`, `criticality`, then seeded shuffles
/// `shuffle:1`, `shuffle:2`, … as independent restarts. `k = 0` is
/// clamped to 1, so `longest` always runs.
pub fn portfolio_roster(k: usize) -> Vec<NetOrdering> {
    let k = k.max(1);
    let mut roster = vec![
        NetOrdering::LongestFirst,
        NetOrdering::Congestion,
        NetOrdering::CriticalityFanout,
    ];
    roster.truncate(k);
    let mut seed = 1;
    while roster.len() < k {
        roster.push(NetOrdering::Shuffle(seed));
        seed += 1;
    }
    roster
}

/// One strategy's outcome in a portfolio run — the same numbers its
/// standalone run reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyOutcome {
    /// The strategy's `ocr-order-v1` name.
    pub name: String,
    /// Nets the strategy left unrouted.
    pub unrouted: usize,
    /// Level B steps the strategy charged.
    pub steps: u64,
}

/// The deterministic summary of a portfolio run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioReport {
    /// Per-strategy outcomes, in roster order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Roster index of the winner.
    pub winner: usize,
    /// The winner's unrouted-net count.
    pub winner_unrouted: usize,
    /// The winner's total charged Level B steps.
    pub winner_steps: u64,
}

impl PortfolioReport {
    /// The winning strategy's name.
    pub fn winner_name(&self) -> &str {
        &self.outcomes[self.winner].name
    }
}

impl Flow {
    /// Runs `k` ordering strategies and returns the winning result
    /// with the per-strategy report — see the [module docs](self) for
    /// the winner rule and the determinism argument. The flow's own
    /// `level_b.ordering` is ignored; the roster decides.
    ///
    /// The portfolio manages one `RunControl` per run internally, so it
    /// does not compose with an outer [`RunSession`] (the CLI rejects
    /// `--order portfolio` together with run-control flags).
    ///
    /// # Errors
    ///
    /// [`RouteError::NoLevelB`] for a channel baseline, which has no
    /// Level B stage to order. Otherwise propagates Level A channel
    /// errors and Level B setup errors (setup is ordering-independent,
    /// so every attempt fails alike), and [`RouteError::Interrupted`]
    /// if an ambient control the caller installed stops Level A.
    pub fn run_portfolio(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        k: usize,
    ) -> Result<(FlowResult, PortfolioReport), RouteError> {
        if self.kind != FlowKind::OverCell {
            return Err(RouteError::NoLevelB(self.kind));
        }
        let mut report = None;
        let result = run_with_telemetry(self.options, || {
            let _span = ocr_obs::span("order.portfolio");
            // Level A once (the channel stage is ordering-independent),
            // then every strategy's Level B.
            self.run_stages(
                layout,
                placement,
                &RunSession::default(),
                |expanded, set_b, base| {
                    let (b, r) = run_roster(expanded, set_b, &base, k)?;
                    report = Some(r);
                    Ok(b)
                },
            )
        })?;
        Ok((result, report.ok_or(RouteError::Interrupted)?))
    }
}

/// Runs the `k`-strategy roster to completion on the pool and returns
/// the winner's Level B result with the per-strategy report.
fn run_roster(
    layout: &Layout,
    set_b: &[NetId],
    base: &LevelBConfig,
    k: usize,
) -> Result<(LevelBResult, PortfolioReport), RouteError> {
    let roster = portfolio_roster(k);
    let k = roster.len();
    ocr_obs::count("order.strategies", k as u64);

    // Every strategy runs to completion; hard errors propagate in
    // roster order.
    let runs = ocr_exec::parallel_map(&roster, |ordering| {
        run_attempt(layout, set_b, base, ordering)
    });
    let mut outcomes = Vec::with_capacity(k);
    let mut results = Vec::with_capacity(k);
    for (ordering, run) in roster.iter().zip(runs) {
        let (b, steps) = run?;
        outcomes.push(StrategyOutcome {
            name: ordering.name(),
            unrouted: b.stats.nets_failed,
            steps,
        });
        results.push(b);
    }
    let winner = (0..k)
        .min_by_key(|&j| (outcomes[j].unrouted, outcomes[j].steps, j))
        .expect("the roster is never empty");
    let (winner_unrouted, winner_steps) = (outcomes[winner].unrouted, outcomes[winner].steps);
    ocr_obs::count_max("order.winner.index", winner as u64);
    ocr_obs::count_max("order.winner.steps", winner_steps);
    ocr_obs::count_max("order.winner.unrouted", winner_unrouted as u64);
    let report = PortfolioReport {
        outcomes,
        winner,
        winner_unrouted,
        winner_steps,
    };
    Ok((results.swap_remove(winner), report))
}

/// One Level B run from scratch with `ordering` swapped into the base
/// configuration, under a fresh control that only counts steps.
/// Returns the result and the steps it charged.
fn run_attempt(
    layout: &Layout,
    set_b: &[NetId],
    base: &LevelBConfig,
    ordering: &NetOrdering,
) -> Result<(LevelBResult, u64), RouteError> {
    let _span = ocr_obs::span("order.attempt");
    let mut config = base.clone();
    config.ordering = ordering.clone();
    let control = RunControl::new();
    let session = RunSession::with_control(control.clone());
    let b = ocr_exec::with_control(&control, || {
        let mut router = LevelBRouter::new(layout, set_b, config)?;
        router.route_all_with(&session)
    })?;
    Ok((b, control.steps()))
}
