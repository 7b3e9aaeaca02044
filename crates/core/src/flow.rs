//! Complete routing flows: the paper's proposed two-level over-cell
//! methodology and the channel-only baselines it is compared against.
//!
//! Every flow implements the [`Flow`] trait and is named by a
//! [`FlowKind`], so drivers dispatch generically — *any flow × any
//! chip* — instead of matching on concrete types:
//!
//! ```
//! # use ocr_core::flow::FlowKind;
//! let flow = FlowKind::from_name("channel2").expect("known flow").build();
//! ```
//!
//! * [`OverCellFlow`] (`"overcell"`) — the proposed router: net
//!   partitioning, Level A channel routing on metal1/metal2, then Level
//!   B over-cell routing on metal3/metal4 over the fixed topology.
//! * [`ChannelFlow`] — the all-channel comparators: every net routed
//!   through channels by one [`ChannelRouterKind`]. [`FlowKind::Channel2`]
//!   is the Table 2 two-layer baseline, [`FlowKind::Channel3`] the HVH
//!   comparator and [`FlowKind::Channel4`] the Table 3 real comparator
//!   (the four-layer layer-pair decomposition).
//! * [`run_analytic_four_layer_estimate`] — the paper's own Table 3
//!   comparator: the two-layer result re-laid-out under the "optimistic
//!   assumption" of half the tracks at the coarser four-layer pitch.
//!
//! Options shared by all flows (the independent oracle and its
//! strictness) live in [`FlowOptions`] rather than per-flow fields.
//!
//! Every flow has one run path: [`Flow::run`] is
//! [`Flow::run_controlled`] under an unlimited [`RunSession::default`],
//! so a plain run charges and reports its steps exactly as a
//! controlled one does.

use crate::ckpt::RunSession;
use crate::config::LevelBConfig;
use crate::degrade::{Degradation, DegradeReason};
use crate::error::RouteError;
use crate::level_b::{LevelBResult, LevelBRouter};
use crate::partition::{partition_nets, PartitionStrategy};
use crate::stats::RoutingStats;
use ocr_channel::{ChannelFrame, ChannelRouterKind, ChipChannelOptions, ChipChannelResult};
use ocr_exec::TripReason;
use ocr_geom::Coord;
use ocr_io::ckpt::{write_checkpoint, CheckpointDoc};
use ocr_netlist::{Layout, NetId, RouteMetrics, RoutedDesign, RowPlacement};
use ocr_verify::{VerifyOptions, VerifyReport};
use std::borrow::Cow;
use std::fmt;

/// The output of any complete flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Final routed geometry (absolute coordinates on the final die).
    pub design: RoutedDesign,
    /// The final layout (expanded cells/pins/die).
    pub layout: Layout,
    /// The final placement.
    pub placement: RowPlacement,
    /// Aggregate metrics (area, wire length, vias, corners).
    pub metrics: RouteMetrics,
    /// Level B statistics (over-cell flow only).
    pub stats: Option<RoutingStats>,
    /// Per-channel track counts from the channel stage.
    pub channel_tracks: Vec<usize>,
    /// Per-channel heights from the channel stage.
    pub channel_heights: Vec<Coord>,
    /// Nets routed in channels (set A).
    pub level_a_nets: Vec<NetId>,
    /// Nets routed over-cell (set B).
    pub level_b_nets: Vec<NetId>,
    /// Independent oracle report (present when the flow's `verify` flag
    /// was set).
    pub verify: Option<VerifyReport>,
    /// Telemetry snapshot of this run (present when the flow's
    /// `telemetry` flag was set): per-phase spans, live counters, and
    /// worker-pool activity, aggregated across `ocr-exec` workers.
    pub telemetry: Option<ocr_obs::Telemetry>,
    /// Degradation report (present when the flow's `salvage` flag was
    /// set): every net the run degraded around with its typed reason,
    /// plus the count of routes salvaged. Empty-but-present means the
    /// salvage run completed with nothing degraded.
    pub degradation: Option<Degradation>,
}

impl FlowResult {
    /// The `ocr-verify` oracle's verdict on this result: the attached
    /// [`FlowResult::verify`] report when the flow ran with `verify`,
    /// otherwise a fresh run with default options.
    pub fn oracle_report(&self) -> Cow<'_, VerifyReport> {
        match &self.verify {
            Some(report) => Cow::Borrowed(report),
            None => Cow::Owned(ocr_verify::verify(&self.layout, &self.design)),
        }
    }
}

/// Options shared by every flow: whether to run the independent
/// `ocr-verify` oracle on the result, and how strictly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowOptions {
    /// Run the `ocr-verify` oracle on the routed result (see
    /// [`FlowResult::verify`]).
    pub verify: bool,
    /// Use full drawn-width spacing rules on all four layers
    /// ([`VerifyOptions::strict`]) instead of the Level A default.
    /// Only meaningful together with `verify`.
    pub strict: bool,
    /// Collect `ocr-obs` telemetry for the run (see
    /// [`FlowResult::telemetry`]). Telemetry is observational only: the
    /// routed design is byte-identical with it on or off.
    pub telemetry: bool,
    /// Degrade gracefully instead of aborting: Level B setup errors and
    /// per-net panics fail only the affected net, reported with a typed
    /// reason in [`FlowResult::degradation`] (see
    /// [`LevelBConfig::salvage`]). Level A channel errors remain hard
    /// errors — a broken topology cannot be partially salvaged.
    pub salvage: bool,
}

impl FlowOptions {
    /// All options off — the start of a builder chain:
    ///
    /// ```
    /// # use ocr_core::flow::FlowOptions;
    /// let opts = FlowOptions::new().verify(true).salvage(true);
    /// assert!(opts.verify && opts.salvage && !opts.strict);
    /// ```
    ///
    /// The fields stay public; the builder just replaces struct-literal
    /// churn at construction sites.
    pub fn new() -> Self {
        FlowOptions::default()
    }

    /// Sets [`FlowOptions::verify`] (run the independent oracle).
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Sets [`FlowOptions::strict`] (drawn-width rules everywhere).
    pub fn strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }

    /// Sets [`FlowOptions::telemetry`] (collect `ocr-obs` data).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Sets [`FlowOptions::salvage`] (degrade instead of aborting).
    pub fn salvage(mut self, on: bool) -> Self {
        self.salvage = on;
        self
    }
}

/// A complete routing flow: given a layout and a row placement, produce
/// a routed design with metrics (and optionally an oracle report).
///
/// Both concrete flows implement this, so drivers hold a
/// `Box<dyn Flow>` built from a [`FlowKind`] instead of matching on
/// concrete types.
pub trait Flow: Send + Sync {
    /// Runs the flow on a layout and row placement: a
    /// [`Flow::run_controlled`] under [`RunSession::default`], which
    /// never trips, writes no checkpoint and resumes nothing.
    ///
    /// # Errors
    ///
    /// Propagates the flow's routing errors (channel failures, Level B
    /// setup errors).
    fn run(&self, layout: &Layout, placement: &RowPlacement) -> Result<FlowResult, RouteError> {
        self.run_controlled(layout, placement, &RunSession::default())
    }

    /// Runs the flow under a [`RunSession`]: the session's
    /// [`RunControl`](ocr_exec::RunControl) is installed as the ambient
    /// control for the whole run (cancellation, step budget, deadline),
    /// checkpoints are written when the session asks for them, and a
    /// checkpointed resume is honored by the stages that support it
    /// (Level B). A run whose control trips returns `Ok` with every
    /// unfinished net declared failed and reported in
    /// [`FlowResult::degradation`] — never a partial, silent result.
    ///
    /// # Errors
    ///
    /// The same routing errors as [`Flow::run`], plus
    /// [`RouteError::Checkpoint`] when a checkpoint cannot be written or
    /// the resume state is inconsistent with this run.
    fn run_controlled(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError>;
}

/// The four flow implementations by name, for generic dispatch from
/// CLIs, tests and benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// The proposed over-cell flow ([`OverCellFlow`], `"overcell"`).
    OverCell,
    /// Two-layer all-channel baseline ([`ChannelFlow`] with
    /// [`ChannelRouterKind::TwoLayer`], `"channel2"`).
    Channel2,
    /// Three-layer HVH comparator ([`ChannelFlow`] with
    /// [`ChannelRouterKind::ThreeLayer`], `"channel3"`).
    Channel3,
    /// Four-layer HV+HV comparator ([`ChannelFlow`] with
    /// [`ChannelRouterKind::FourLayer`], `"channel4"`).
    Channel4,
}

impl FlowKind {
    /// Every flow, in the canonical (paper) order.
    pub const ALL: [FlowKind; 4] = [
        FlowKind::OverCell,
        FlowKind::Channel2,
        FlowKind::Channel3,
        FlowKind::Channel4,
    ];

    /// Parses a flow name as used by the `ocr` CLI (`"overcell"`,
    /// `"channel2"`, `"channel3"`, `"channel4"`).
    pub fn from_name(name: &str) -> Option<FlowKind> {
        match name {
            "overcell" => Some(FlowKind::OverCell),
            "channel2" => Some(FlowKind::Channel2),
            "channel3" => Some(FlowKind::Channel3),
            "channel4" => Some(FlowKind::Channel4),
            _ => None,
        }
    }

    /// The CLI name of this flow.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::OverCell => "overcell",
            FlowKind::Channel2 => "channel2",
            FlowKind::Channel3 => "channel3",
            FlowKind::Channel4 => "channel4",
        }
    }

    /// The channel router of an all-channel flow (`None` for the
    /// over-cell flow).
    fn channel_router(self) -> Option<ChannelRouterKind> {
        match self {
            FlowKind::OverCell => None,
            FlowKind::Channel2 => Some(ChannelRouterKind::TwoLayer),
            FlowKind::Channel3 => Some(ChannelRouterKind::ThreeLayer),
            FlowKind::Channel4 => Some(ChannelRouterKind::FourLayer),
        }
    }

    /// Builds the flow with default configuration and options.
    pub fn build(self) -> Box<dyn Flow> {
        self.build_with(FlowOptions::default())
    }

    /// Builds the flow with default configuration and the given shared
    /// options.
    pub fn build_with(self, options: FlowOptions) -> Box<dyn Flow> {
        self.build_with_level_b(options, LevelBConfig::default())
    }

    /// Builds the flow with the given shared options and, for the
    /// over-cell flow, a Level B net-ordering policy. Channel flows have
    /// no serial net loop, so `ordering` is ignored for them — callers
    /// that must reject the combination (e.g. `ocr serve`'s per-job
    /// `order=`) validate before building.
    pub fn build_with_ordering(
        self,
        options: FlowOptions,
        ordering: Option<crate::order::NetOrdering>,
    ) -> Box<dyn Flow> {
        let mut level_b = LevelBConfig::default();
        if let Some(ordering) = ordering {
            level_b.ordering = ordering;
        }
        self.build_with_level_b(options, level_b)
    }

    /// Builds the flow with the given shared options and, for the
    /// over-cell flow, a full Level B configuration (cost weights,
    /// ordering, window policy, …). Channel flows have no Level B stage,
    /// so `level_b` is ignored for them — callers that must reject the
    /// combination validate before building.
    pub fn build_with_level_b(self, options: FlowOptions, level_b: LevelBConfig) -> Box<dyn Flow> {
        match self.channel_router() {
            None => Box::new(OverCellFlow {
                options,
                level_b,
                ..OverCellFlow::default()
            }),
            Some(router) => Box::new(ChannelFlow {
                options,
                ..ChannelFlow::new(router)
            }),
        }
    }
}

impl fmt::Display for FlowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs the independent oracle when `options.verify` is set, for
/// [`FlowResult::verify`].
fn maybe_verify(
    options: FlowOptions,
    layout: &Layout,
    design: &RoutedDesign,
) -> Option<VerifyReport> {
    options.verify.then(|| {
        let _span = ocr_obs::span("flow.verify");
        let vo = if options.strict {
            VerifyOptions::strict()
        } else {
            VerifyOptions::default()
        };
        ocr_verify::verify_with(layout, design, &vo)
    })
}

/// Wraps a flow body with telemetry collection when `options.telemetry`
/// is set: a fresh collector is installed for the duration of the run
/// (pool workers inherit it through `ocr-exec`), and its snapshot is
/// attached to the result. With the flag off this is a plain call —
/// instrumented code paths see no collector and record nothing.
pub(crate) fn run_with_telemetry(
    options: FlowOptions,
    f: impl FnOnce() -> Result<FlowResult, RouteError>,
) -> Result<FlowResult, RouteError> {
    // Chaos hook: an armed plan may panic a whole flow run here; the
    // chaos harness isolates it through `parallel_map_isolated`.
    ocr_fault::point("flow.run");
    if !options.telemetry {
        return f();
    }
    let collector = ocr_obs::Collector::new();
    let mut result = ocr_obs::with_collector(&collector, f)?;
    result.telemetry = Some(collector.snapshot());
    Ok(result)
}

/// Assembles the [`FlowResult`] every flow returns from the (possibly
/// merged) chip-channel result — the one place metrics and the optional
/// oracle report are computed.
fn assemble_result(
    a: ChipChannelResult,
    level_a_nets: Vec<NetId>,
    level_b_nets: Vec<NetId>,
    stats: Option<RoutingStats>,
    options: FlowOptions,
    degradation: Option<Degradation>,
) -> FlowResult {
    if let Some(d) = &degradation {
        ocr_obs::count("nets.salvaged", d.salvaged_routes as u64);
    }
    let metrics = RouteMetrics::of(&a.design, &a.expanded);
    let verify = maybe_verify(options, &a.expanded, &a.design);
    FlowResult {
        design: a.design,
        layout: a.expanded,
        placement: a.placement,
        metrics,
        stats,
        channel_tracks: a.channel_tracks,
        channel_heights: a.channel_heights,
        level_a_nets,
        level_b_nets,
        verify,
        telemetry: None,
        degradation,
    }
}

/// Writes a header-only checkpoint (flow, chip hash, salvage, steps —
/// no Level B progress) if the session asks for checkpoints. Channel
/// flows and runs interrupted before Level B have no per-net progress
/// worth recording, but the file still lets `--resume` re-run them
/// coherently (a fresh resume is simply a full rerun).
fn write_header_checkpoint(
    layout: &Layout,
    options: FlowOptions,
    session: &RunSession,
) -> Result<(), RouteError> {
    let Some(spec) = &session.checkpoint else {
        return Ok(());
    };
    let _span = ocr_obs::span("ckpt.write");
    let doc = CheckpointDoc {
        flow: spec.flow.clone(),
        chip_hash: spec.chip_hash,
        salvage: options.salvage,
        steps: session.control.steps(),
        ..CheckpointDoc::default()
    };
    crate::level_b::write_checkpoint_text(&spec.path, &write_checkpoint(layout, &doc))
}

/// The result of a flow run whose control tripped before any wiring was
/// committed: every net declared failed with the trip's degradation
/// reason, an exhaustive report attached, and (trivially) an
/// oracle-clean design. Built over the *original* layout — the stage
/// that would have fixed the final topology never completed.
fn interrupted_result(
    layout: &Layout,
    placement: &RowPlacement,
    options: FlowOptions,
    session: &RunSession,
) -> Result<FlowResult, RouteError> {
    let reason = match session.control.tripped() {
        Some(TripReason::BudgetExceeded) => DegradeReason::BudgetExceeded,
        _ => DegradeReason::Cancelled,
    };
    ocr_obs::count("run.cancelled", 1);
    let mut design = RoutedDesign::new(layout.die, layout.nets.len());
    let mut degradation = Degradation::default();
    for net in layout.net_ids() {
        design.set_failed(net);
        degradation.push(net, reason.clone());
    }
    write_header_checkpoint(layout, options, session)?;
    let metrics = RouteMetrics::of(&design, layout);
    let verify = maybe_verify(options, layout, &design);
    Ok(FlowResult {
        design,
        layout: layout.clone(),
        placement: placement.clone(),
        metrics,
        stats: None,
        channel_tracks: Vec::new(),
        channel_heights: Vec::new(),
        level_a_nets: Vec::new(),
        level_b_nets: Vec::new(),
        verify,
        telemetry: None,
        degradation: Some(degradation),
    })
}

/// Splits the nets into sets A and B under the flow's partition
/// strategy (the `AreaBudget` strategy takes its priority from the
/// criticality order).
fn partition_sets(
    partition: &PartitionStrategy,
    layout: &Layout,
    placement: &RowPlacement,
) -> Result<(Vec<NetId>, Vec<NetId>), RouteError> {
    let _span = ocr_obs::span("flow.partition");
    match partition {
        PartitionStrategy::AreaBudget {
            max_tracks_per_channel,
        } => {
            // Priority: criticality order (most critical first).
            let all: Vec<_> = layout.net_ids().collect();
            let priority = crate::order::NetOrdering::Criticality.order(layout, &all);
            Ok(crate::partition::partition_nets_area_budget(
                layout,
                placement,
                *max_tracks_per_channel,
                &priority,
            ))
        }
        other => partition_nets(layout, other),
    }
}

/// The proposed two-level flow. Level A is always the two-layer
/// metal1/metal2 channel router: metal3/metal4 belong to Level B.
#[derive(Clone, Debug)]
pub struct OverCellFlow {
    /// How to split nets into sets A and B.
    pub partition: PartitionStrategy,
    /// Level B router configuration.
    pub level_b: LevelBConfig,
    /// Shared flow options (oracle verification).
    pub options: FlowOptions,
}

impl Default for OverCellFlow {
    fn default() -> Self {
        OverCellFlow {
            partition: PartitionStrategy::ByClass,
            level_b: LevelBConfig::default(),
            options: FlowOptions::default(),
        }
    }
}

impl OverCellFlow {
    /// Runs the flow on a layout and row placement — see [`Flow::run`].
    ///
    /// # Errors
    ///
    /// Propagates Level A channel errors and Level B setup errors.
    /// Individual Level B net failures are recorded in the design, not
    /// returned.
    pub fn run(&self, layout: &Layout, placement: &RowPlacement) -> Result<FlowResult, RouteError> {
        self.run_controlled(layout, placement, &RunSession::default())
    }

    /// [`OverCellFlow::run`] under a [`RunSession`] — see
    /// [`Flow::run_controlled`].
    ///
    /// # Errors
    ///
    /// As [`OverCellFlow::run`], plus [`RouteError::Checkpoint`].
    pub fn run_controlled(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        run_with_telemetry(self.options, || {
            ocr_exec::with_control(&session.control, || {
                self.run_inner(layout, placement, session)
            })
        })
    }

    /// One [`LevelBRouter`] run under the session's control.
    fn run_inner(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        self.run_stages(layout, placement, session, |expanded, set_b, config| {
            let _span = ocr_obs::span("flow.level_b");
            LevelBRouter::new(expanded, set_b, config)?.route_all_with(session)
        })
    }

    /// The over-cell stage path: partition, Level A, then `level_b` over
    /// the expanded layout with set B and the flow's Level B
    /// configuration (salvage folded in), then merge and assemble. A
    /// plain run passes one [`LevelBRouter`] run; the
    /// [portfolio](crate::portfolio) passes its roster fan-out.
    pub(crate) fn run_stages(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
        level_b: impl FnOnce(&Layout, &[NetId], LevelBConfig) -> Result<LevelBResult, RouteError>,
    ) -> Result<FlowResult, RouteError> {
        if session.control.is_tripped() {
            return interrupted_result(layout, placement, self.options, session);
        }
        let (set_a, set_b) = partition_sets(&self.partition, layout, placement)?;
        // Level A: channels on metal1/metal2; fixes the topology. A
        // tripped control abandons the whole stage (partial channel
        // heights are unusable), so the run degrades to all-failed.
        let mut a = {
            let _span = ocr_obs::span("flow.level_a");
            match ocr_channel::route_chip_channels(
                layout,
                placement,
                &set_a,
                ChipChannelOptions::default(),
            ) {
                Ok(a) => a,
                Err(ocr_channel::ChannelError::Interrupted) => {
                    return interrupted_result(layout, placement, self.options, session);
                }
                Err(e) => return Err(e.into()),
            }
        };
        // Level B: over the entire (expanded) layout area.
        let mut config = self.level_b.clone();
        config.salvage = config.salvage || self.options.salvage;
        let salvage = config.salvage;
        let b = level_b(&a.expanded, &set_b, config)?;
        // A tripped run always reports its degradation, salvage or not —
        // budget/cancel trips must never look like a complete result.
        let tripped = session.control.is_tripped();
        let degradation = (salvage || tripped).then_some(b.degraded);
        a.design.merge(b.design);
        Ok(assemble_result(
            a,
            set_a,
            set_b,
            Some(b.stats),
            self.options,
            degradation,
        ))
    }
}

impl Flow for OverCellFlow {
    fn run_controlled(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        OverCellFlow::run_controlled(self, layout, placement, session)
    }
}

/// An all-channel comparator flow: every net routed through the
/// channels by one channel router — two-layer (the Table 2 baseline),
/// three-layer HVH (the kind of multi-layer channel router the paper's
/// related work, Chen & Liu and Bruell & Sun, provided) or four-layer
/// HV+HV (the Table 3 real comparator).
#[derive(Clone, Debug)]
pub struct ChannelFlow {
    /// Chip-channel options: the channel router.
    pub channel: ChipChannelOptions,
    /// Shared flow options (oracle verification).
    pub options: FlowOptions,
}

impl ChannelFlow {
    /// A channel flow with the given router and default options.
    pub fn new(router: ChannelRouterKind) -> Self {
        ChannelFlow {
            channel: ChipChannelOptions { router },
            options: FlowOptions::default(),
        }
    }

    /// Runs the comparator on a layout and placement — see
    /// [`Flow::run`].
    ///
    /// # Errors
    ///
    /// Propagates channel routing errors.
    pub fn run(&self, layout: &Layout, placement: &RowPlacement) -> Result<FlowResult, RouteError> {
        self.run_controlled(layout, placement, &RunSession::default())
    }

    /// [`ChannelFlow::run`] under a [`RunSession`] — see
    /// [`Flow::run_controlled`].
    ///
    /// # Errors
    ///
    /// As [`ChannelFlow::run`], plus [`RouteError::Checkpoint`].
    pub fn run_controlled(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        run_with_telemetry(self.options, || {
            ocr_exec::with_control(&session.control, || {
                self.run_inner(layout, placement, session)
            })
        })
    }

    /// Partitions everything into set A, routes the chip channels and
    /// assembles. A pre-tripped control or an interrupted channel stage
    /// produces the all-failed [`interrupted_result`]; a completed run
    /// leaves a header-only checkpoint behind when the session asks for
    /// one.
    fn run_inner(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        if session.control.is_tripped() {
            return interrupted_result(layout, placement, self.options, session);
        }
        let (set_a, _) = partition_nets(layout, &PartitionStrategy::AllA)?;
        let a = {
            let _span = ocr_obs::span("flow.channels");
            match ocr_channel::route_chip_channels(layout, placement, &set_a, self.channel) {
                Ok(a) => a,
                Err(ocr_channel::ChannelError::Interrupted) => {
                    return interrupted_result(layout, placement, self.options, session);
                }
                Err(e) => return Err(e.into()),
            }
        };
        write_header_checkpoint(layout, self.options, session)?;
        // Channel-only flows have no Level B stage to degrade, so a
        // salvage run reports an empty (complete) degradation.
        Ok(assemble_result(
            a,
            set_a,
            Vec::new(),
            None,
            self.options,
            self.options.salvage.then(Degradation::default),
        ))
    }
}

impl Flow for ChannelFlow {
    fn run_controlled(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        session: &RunSession,
    ) -> Result<FlowResult, RouteError> {
        ChannelFlow::run_controlled(self, layout, placement, session)
    }
}

/// The paper's Table 3 analytic comparator: take the two-layer flow's
/// channel track counts, halve them ("a multi-layer channel routing
/// algorithm would reduce the channel area requirements by 50%"), and
/// lay the channels out at the coarsest four-layer pitch. Returns the
/// estimated layout area.
pub fn run_analytic_four_layer_estimate(two_layer: &FlowResult, layout: &Layout) -> i128 {
    let pitch4 = layout.rules.channel_pitch_four_layer();
    let rows_height: Coord = two_layer.placement.rows.iter().map(|r| r.height).sum();
    let channels_height: Coord = two_layer
        .channel_tracks
        .iter()
        .map(|&t| {
            let halved = ocr_channel::analytic_multilayer_tracks(t);
            ChannelFrame::required_height(halved, pitch4)
        })
        .sum();
    let height = rows_height + channels_height;
    let width = two_layer.layout.die.width();
    width as i128 * height as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Layer, Point, Rect};
    use ocr_netlist::{NetClass, Row};

    /// Builds a 2-row, 4-cell layout with a mixture of local (set A by
    /// class) and long-distance signal nets.
    fn chip() -> (Layout, RowPlacement) {
        let mut l = Layout::new(Rect::new(0, 0, 600, 400));
        // Uniform rules whose pitch is 20 on every layer, the fixture's
        // pin grid.
        l.rules = ocr_netlist::DesignRules::uniform(ocr_netlist::LayerRules {
            wire_width: 8,
            wire_spacing: 12,
            via_size: 8,
        });
        let c = [
            l.add_cell("a", Rect::new(60, 60, 260, 140)),
            l.add_cell("b", Rect::new(300, 60, 540, 140)),
            l.add_cell("c", Rect::new(60, 240, 300, 320)),
            l.add_cell("d", Rect::new(340, 240, 540, 320)),
        ];
        // Critical (set A) local net between facing edges in channel 1.
        let crit = l.add_net("crit", NetClass::Critical);
        l.add_pin(crit, Some(c[0]), Point::new(100, 140), Layer::Metal2);
        l.add_pin(crit, Some(c[2]), Point::new(200, 240), Layer::Metal2);
        // Signal (set B) nets: long diagonals over the cells.
        let s1 = l.add_net("s1", NetClass::Signal);
        l.add_pin(s1, Some(c[0]), Point::new(80, 60), Layer::Metal2);
        l.add_pin(s1, Some(c[3]), Point::new(500, 320), Layer::Metal2);
        let s2 = l.add_net("s2", NetClass::Signal);
        l.add_pin(s2, Some(c[1]), Point::new(320, 60), Layer::Metal2);
        l.add_pin(s2, Some(c[2]), Point::new(120, 320), Layer::Metal2);
        let p = RowPlacement::new(
            vec![
                Row {
                    y0: 60,
                    height: 80,
                    cells: vec![c[0], c[1]],
                },
                Row {
                    y0: 240,
                    height: 80,
                    cells: vec![c[2], c[3]],
                },
            ],
            60,
            60,
        );
        (l, p)
    }

    /// The two-layer baseline.
    fn two_layer() -> ChannelFlow {
        ChannelFlow::new(ChannelRouterKind::TwoLayer)
    }

    #[test]
    fn over_cell_flow_routes_everything() {
        let (l, p) = chip();
        let res = OverCellFlow::default().run(&l, &p).expect("flow");
        assert_eq!(res.level_a_nets.len(), 1);
        assert_eq!(res.level_b_nets.len(), 2);
        assert_eq!(res.metrics.failed_nets, 0);
        assert_eq!(res.metrics.routed_nets, 3);
        let report = ocr_verify::verify(&res.layout, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn two_layer_baseline_routes_everything() {
        let (l, p) = chip();
        let res = two_layer().run(&l, &p).expect("flow");
        assert_eq!(res.metrics.routed_nets, 3);
        let report = ocr_verify::verify(&res.layout, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn four_layer_baseline_routes_everything() {
        let (l, p) = chip();
        let res = ChannelFlow::new(ChannelRouterKind::FourLayer)
            .run(&l, &p)
            .expect("flow");
        assert_eq!(res.metrics.routed_nets, 3);
        let report = ocr_verify::verify(&res.layout, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn over_cell_flow_shrinks_area_vs_two_layer() {
        let (l, p) = chip();
        let over = OverCellFlow::default().run(&l, &p).expect("over-cell");
        let two = two_layer().run(&l, &p).expect("two-layer");
        assert!(
            over.metrics.layout_area <= two.metrics.layout_area,
            "over-cell {} vs two-layer {}",
            over.metrics.layout_area,
            two.metrics.layout_area
        );
    }

    #[test]
    fn analytic_estimate_is_bounded() {
        let (l, p) = chip();
        let two = two_layer().run(&l, &p).expect("two-layer");
        let est = run_analytic_four_layer_estimate(&two, &l);
        // Lower bound: rows alone. Upper bound: all tracks (unhalved)
        // laid out at the coarse four-layer pitch. Note the estimate may
        // legitimately exceed the two-layer area when track counts are
        // small — exactly the paper's design-rule argument for why
        // halved tracks do not halve area.
        let width = two.layout.die.width() as i128;
        let rows_only: i128 = width * (p.rows.iter().map(|r| r.height).sum::<i64>() as i128);
        let pitch4 = l.rules.channel_pitch_four_layer();
        let unhalved: i128 = width
            * ((p.rows.iter().map(|r| r.height).sum::<i64>()
                + two
                    .channel_tracks
                    .iter()
                    .map(|&t| ChannelFrame::required_height(t, pitch4))
                    .sum::<i64>()) as i128);
        assert!(est >= rows_only);
        assert!(est <= unhalved);
    }

    #[test]
    fn verify_flag_attaches_a_clean_report() {
        let (l, p) = chip();
        let res = OverCellFlow {
            options: FlowOptions::new().verify(true),
            ..OverCellFlow::default()
        }
        .run(&l, &p)
        .expect("flow");
        let report = res.verify.expect("verify flag set, report attached");
        assert!(report.is_clean(), "{report}");

        let silent = two_layer().run(&l, &p).expect("flow");
        assert!(silent.verify.is_none());
    }

    #[test]
    fn flow_kind_builds_and_runs_every_flow() {
        let (l, p) = chip();
        for kind in FlowKind::ALL {
            assert_eq!(FlowKind::from_name(kind.name()), Some(kind));
            let flow = kind.build_with(FlowOptions::new().verify(true));
            let res = flow.run(&l, &p).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(res.metrics.routed_nets, 3, "{kind}");
            assert!(res.verify.is_some(), "{kind}");
        }
        assert!(FlowKind::from_name("bogus").is_none());
    }

    #[test]
    fn all_b_partition_eliminates_channel_growth() {
        let (l, p) = chip();
        let res = OverCellFlow {
            partition: PartitionStrategy::AllB,
            level_b: LevelBConfig::default(),
            options: FlowOptions::default(),
        }
        .run(&l, &p)
        .expect("flow");
        // Channels collapse to the minimal pitch each.
        assert!(res.channel_tracks.iter().all(|&t| t == 0));
        assert_eq!(res.metrics.routed_nets, 3);
        let report = ocr_verify::verify(&res.layout, &res.design);
        assert!(report.is_clean(), "{report}");
    }
}
