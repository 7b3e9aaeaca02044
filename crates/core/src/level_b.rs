//! The serial Level B over-cell router.
//!
//! Processes the set B nets serially in the configured order. For every
//! two-terminal connection it runs the two MBFS passes over the Track
//! Intersection Graph within a bounded window (expanding on failure),
//! selects the best minimum-corner path through the Path Selection
//! Trees, commits the wiring to the grid, and emits metal3/metal4
//! geometry with corner vias and terminal via stacks. Multi-terminal
//! nets are decomposed by the Prim-based Steiner heuristic of
//! [`crate::steiner`].

use crate::ckpt::{reason_token, stats_to_pairs, CheckpointSpec, LevelBResume, RunSession};
use crate::config::LevelBConfig;
use crate::cost::{terminals_near_window, CostEvaluator};
use crate::degrade::{Degradation, DegradeReason, NetDegradation};
use crate::error::RouteError;
use crate::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use crate::pst::{select_best_path, CandidatePath};
use crate::stats::RoutingStats;
use crate::steiner::SteinerAccumulator;
use ocr_exec::{RunControl, TripReason};
use ocr_geom::{Dir, Layer, Point};
use ocr_grid::{build_grid, CellState, GridModel};
use ocr_io::ckpt::{write_checkpoint, CheckpointDoc};
use ocr_netlist::{Layout, NetId, NetRoute, RouteSeg, RoutedDesign, Via};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many times one net may rip its blockers and be retried;
/// [`LevelBConfig::rip_up_budget`] bounds the rips of the whole run.
const MAX_RETRIES_PER_NET: usize = 4;

/// How many times the search window may double before a net is declared
/// unroutable (each expansion doubles the margin; the final attempt
/// searches the whole grid).
const MAX_WINDOW_EXPANSIONS: usize = 4;

/// Initial search window: the terminals' bounding box expanded by this
/// many tracks on every side (the paper's rectangular region "Π" around
/// the two terminals).
const INITIAL_WINDOW_MARGIN: usize = 4;

/// Result of routing a Level B net set.
#[derive(Clone, Debug)]
pub struct LevelBResult {
    /// Routed geometry (route slots for every net of the layout; only
    /// set B nets filled).
    pub design: RoutedDesign,
    /// Collected counters.
    pub stats: RoutingStats,
    /// Per-net degradation reasons — one entry per net in the design's
    /// `failed` list (the exhaustiveness invariant), whether or not
    /// [`LevelBConfig::salvage`] was on. Non-salvage runs still abort on
    /// setup rejections and internal errors, so their reasons are the
    /// mid-run kinds (`Unroutable`, `Degenerate`, `DoomedTerminal`) plus
    /// the run-control kinds (`BudgetExceeded`, `Cancelled`).
    pub degraded: Degradation,
}

/// The Level B router. Owns the routing grid for the duration of the
/// run.
#[derive(Debug)]
pub struct LevelBRouter<'a> {
    layout: &'a Layout,
    nets: Vec<NetId>,
    grid: GridModel,
    config: LevelBConfig,
    /// Grid cells of terminals whose nets are not yet routed (for the
    /// `dup` cost term).
    unrouted_cells: Vec<(NetId, (usize, usize))>,
    /// Nets identified by the last failed connection's soft-path probe
    /// as the cheapest victims to rip.
    last_blockers: Vec<NetId>,
    /// Every terminal cell (all nets) — rip-up cannot free these, so
    /// the soft-path probe treats them as hard obstacles.
    terminal_cells: std::collections::HashSet<(usize, usize)>,
    /// Victims already ripped for a given net: later probes for that net
    /// must find *different* victims, which breaks two nets ping-ponging
    /// over a single contested lane and forces exploration of
    /// alternative regions.
    rip_exclusions: std::collections::HashMap<u32, Vec<u32>>,
    /// Nets with a terminal sealed on both planes — they can never
    /// complete, so salvage mode reports `DoomedTerminal` instead of the
    /// generic `Unroutable` when they fail.
    doomed_nets: std::collections::HashSet<u32>,
    /// Nets rejected at grid build time under salvage (off-grid or
    /// conflicting terminals); `route_all` declares them failed with
    /// their reasons instead of routing them.
    pre_degraded: Vec<NetDegradation>,
    /// The run control of the active `route_all_with` call, consulted by
    /// the search internals to charge deterministic steps.
    control: RunControl,
    /// Reusable search state (PST arenas, MBFS buffers, maze wave
    /// buffers), threaded through every window attempt, maze fallback
    /// and rip-up probe.
    scratch: SearchScratch,
    stats: RoutingStats,
}

impl<'a> LevelBRouter<'a> {
    /// Builds the Level B grid over the layout's die, inserts a track
    /// pair through every terminal of `nets`, rasterizes obstacles and
    /// reserves every terminal cell for its owning net.
    ///
    /// # Errors
    ///
    /// [`RouteError::TerminalConflict`] if two nets' terminals share a
    /// grid cell; [`RouteError::TerminalOffGrid`] if a terminal lies
    /// outside the die. With [`LevelBConfig::salvage`] set neither is
    /// returned: the offending net is recorded (with a typed reason)
    /// instead, reserves nothing, and `route_all` declares it failed.
    pub fn new(
        layout: &'a Layout,
        nets: &[NetId],
        config: LevelBConfig,
    ) -> Result<Self, RouteError> {
        // Non-finite weights would poison every cost comparison, so they
        // are a hard configuration error even under salvage mode.
        config
            .weights
            .validate()
            .map_err(RouteError::InvalidWeights)?;
        let mut grid = build_grid(layout, nets);
        let mut unrouted_cells = Vec::new();
        let mut doomed_terminals = 0usize;
        let mut doomed_nets = std::collections::HashSet::new();
        let mut pre_degraded: Vec<NetDegradation> = Vec::new();
        'nets: for &net in nets {
            // Validate every terminal of the net before reserving any,
            // so a rejected net leaves no reservations behind (salvage
            // mode skips it and keeps going with the rest).
            for &pid in &layout.net(net).pins {
                let at = layout.pin(pid).position;
                let Some(cell) = grid.snap(at) else {
                    if config.salvage {
                        pre_degraded.push(NetDegradation {
                            net,
                            reason: DegradeReason::TerminalOffGrid,
                        });
                        continue 'nets;
                    }
                    return Err(RouteError::TerminalOffGrid { net, at });
                };
                for dir in Dir::BOTH {
                    if let CellState::Used(n) = grid.state(dir, cell.0, cell.1) {
                        if n != net.0 {
                            if config.salvage {
                                pre_degraded.push(NetDegradation {
                                    net,
                                    reason: DegradeReason::TerminalConflict,
                                });
                                continue 'nets;
                            }
                            return Err(RouteError::TerminalConflict {
                                nets: (NetId(n), net),
                                at,
                            });
                        }
                    }
                }
            }
            for &pid in &layout.net(net).pins {
                let at = layout.pin(pid).position;
                let cell = grid.snap(at).expect("terminal validated above");
                let mut blocked_planes = 0usize;
                for dir in Dir::BOTH {
                    match grid.state(dir, cell.0, cell.1) {
                        CellState::Blocked => {
                            // Terminal under an obstacle: leave blocked —
                            // the net will fail with `Unroutable`.
                            blocked_planes += 1;
                        }
                        _ => grid.set_state(dir, cell.0, cell.1, CellState::Used(net.0)),
                    }
                }
                // A terminal sealed on both planes can never be routed;
                // keeping it in the unrouted list would make the `dup`
                // cost term steer live nets away from a lost cause.
                if blocked_planes == Dir::BOTH.len() {
                    doomed_terminals += 1;
                    doomed_nets.insert(net.0);
                    ocr_obs::count("level_b.doomed_terminals", 1);
                } else {
                    unrouted_cells.push((net, cell));
                }
            }
        }
        let terminal_cells = unrouted_cells.iter().map(|&(_, c)| c).collect();
        Ok(LevelBRouter {
            layout,
            nets: nets.to_vec(),
            grid,
            config,
            unrouted_cells,
            last_blockers: Vec::new(),
            terminal_cells,
            rip_exclusions: std::collections::HashMap::new(),
            doomed_nets,
            pre_degraded,
            control: RunControl::new(),
            scratch: SearchScratch::new(),
            stats: RoutingStats {
                doomed_terminals,
                ..RoutingStats::default()
            },
        })
    }

    /// The routing grid (for rendering and analysis).
    pub fn grid(&self) -> &GridModel {
        &self.grid
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Routes every net in the configured order, with bounded
    /// rip-up-and-reroute for hard-blocked nets (see
    /// [`LevelBConfig::rip_up_budget`]). Individual net failures are
    /// recorded in the design's `failed` list, not returned as errors.
    ///
    /// With [`LevelBConfig::salvage`] set, *nothing* is returned as an
    /// error: nets rejected at grid build time are declared failed with
    /// their typed reasons, and a net whose routing panics is scrubbed
    /// from the grid and declared failed as `Poisoned` — the run keeps
    /// going and the result's [`LevelBResult::degraded`] report mirrors
    /// the failed list exactly.
    ///
    /// This is [`LevelBRouter::route_all_with`] under
    /// [`RunSession::default`]: an unlimited control that never trips,
    /// no checkpoint and no resume.
    pub fn route_all(&mut self) -> Result<LevelBResult, RouteError> {
        self.route_all_with(&RunSession::default())
    }

    /// [`LevelBRouter::route_all`] under a [`RunSession`].
    ///
    /// The run charges one deterministic step per search-window attempt
    /// and one per rip-up against the session's [`RunControl`], polls it
    /// at every net-commit boundary, and reports the steps it charged as
    /// the `run.steps` counter. When the control trips, the in-flight
    /// net's attempt is rolled back (wiring *and* counters), it returns
    /// to the front of the queue, and every net still queued is
    /// degraded with
    /// [`DegradeReason::BudgetExceeded`] or [`DegradeReason::Cancelled`]
    /// — the committed subset stays oracle-clean and the report stays
    /// exhaustive.
    ///
    /// With [`RunSession::checkpoint`] set, progress is written to the
    /// checkpoint file every [`CheckpointSpec::every`] net commits and
    /// once more when the loop ends — *before* the remaining nets are
    /// degraded, so the final checkpoint of a tripped run still lists
    /// them as pending and a resume re-attempts them. Checkpoint write
    /// failures are returned as [`RouteError::Checkpoint`] even in
    /// salvage mode. With [`RunSession::resume`] set (and not
    /// [fresh](LevelBResume::is_fresh)), the router seeds itself from
    /// the checkpointed progress instead of starting from the net
    /// ordering, which makes an interrupted-and-resumed run
    /// byte-identical to an uninterrupted one.
    pub fn route_all_with(&mut self, session: &RunSession) -> Result<LevelBResult, RouteError> {
        let result = self.route_queue(session);
        // The maze buffers scale with the die (about 9 MB on the ×8
        // chip); a router kept alive after the run should not hold them.
        self.scratch.maze.release();
        result
    }

    /// The body of [`LevelBRouter::route_all_with`].
    fn route_queue(&mut self, session: &RunSession) -> Result<LevelBResult, RouteError> {
        self.control = session.control.clone();
        let steps_before = self.control.steps();
        // Declare the rip-up counters up front so telemetry exports
        // always carry them, even for runs that never rip.
        for name in [
            "level_b.rips",
            "level_b.retries",
            "level_b.exclusions_cleared",
            "level_b.doomed_terminals",
            "level_b.window_expansions",
            "level_b.maze_fallbacks",
            "level_b.attempts_ok",
            "level_b.attempts_failed_clipped",
            "level_b.attempts_failed_full",
            "level_b.select_nodes",
            "level_b.select_candidates",
            "run.steps",
            "run.cancelled",
        ] {
            ocr_obs::count(name, 0);
        }
        let mut design = RoutedDesign::new(self.layout.die, self.layout.nets.len());
        let mut degraded = Degradation::default();
        for d in std::mem::take(&mut self.pre_degraded) {
            design.set_failed(d.net);
            degraded.nets.push(d);
        }
        let resume = session.resume.as_ref().filter(|r| !r.is_fresh());
        let mut queue: std::collections::VecDeque<NetId>;
        let mut rips_left;
        let mut retries: std::collections::HashMap<u32, usize>;
        if let Some(resume) = resume {
            let _span = ocr_obs::span("ckpt.load");
            self.seed_from_resume(resume, &mut design, &mut degraded)?;
            // The pending queue is restored verbatim (an interrupted
            // net sits at the front), not recomputed from the ordering:
            // rip-up reshuffles the queue as a run progresses, so only
            // the checkpointed order reproduces the uninterrupted run.
            queue = resume.pending.iter().copied().collect();
            rips_left = resume.rips_left;
            retries = resume.retries.iter().copied().collect();
        } else {
            let order = {
                let _span = ocr_obs::span("level_b.order");
                self.config.ordering.clone().order(self.layout, &self.nets)
            };
            queue = order.into_iter().filter(|&n| !degraded.covers(n)).collect();
            rips_left = self.config.rip_up_budget;
            retries = std::collections::HashMap::new();
        }
        let mut commits = 0usize;
        while let Some(net) = queue.pop_front() {
            // Net-commit boundary: a tripped control stops the run here
            // with the queue intact (this net included).
            if self.control.is_tripped() {
                queue.push_front(net);
                break;
            }
            // Snapshot the counters so an interrupted attempt can be
            // rolled back without double-counting on resume.
            let snapshot = self.stats;
            let outcome = if self.config.salvage {
                // Isolate per-net panics (injected faults or real bugs):
                // scrub the net's partial wiring off the grid, declare
                // it failed, and keep routing everything else.
                match catch_unwind(AssertUnwindSafe(|| self.route_net(net))) {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        self.scrub_net(net);
                        self.stats.nets_poisoned += 1;
                        ocr_obs::count("level_b.poisoned_nets", 1);
                        degraded.push(
                            net,
                            DegradeReason::Poisoned {
                                message: ocr_fault::payload_message(payload.as_ref()),
                            },
                        );
                        design.set_failed(net);
                        continue;
                    }
                }
            } else {
                self.route_net(net)
            };
            match outcome {
                Ok(route) => {
                    // The net is in: any victims ripped on its behalf
                    // stop constraining future probes for this net id
                    // (stale exclusions would over-restrict rip-up if
                    // the net is itself ripped and re-routed later).
                    if self.rip_exclusions.remove(&net.0).is_some() {
                        self.stats.exclusions_cleared += 1;
                        ocr_obs::count("level_b.exclusions_cleared", 1);
                    }
                    design.set_route(net, route);
                    commits += 1;
                    if let Some(spec) = &session.checkpoint {
                        if commits.is_multiple_of(spec.every.max(1)) {
                            self.write_checkpoint_file(
                                spec, &design, &degraded, &queue, rips_left, &retries,
                            )?;
                        }
                    }
                }
                Err(RouteError::Interrupted) => {
                    // The attempt already rolled its wiring off the
                    // grid; roll its counters back too, return the net
                    // to the front of the queue and stop. A resume will
                    // re-run the attempt from scratch, charging and
                    // counting it exactly as the uninterrupted run did.
                    self.stats = snapshot;
                    queue.push_front(net);
                    break;
                }
                Err(err @ (RouteError::Unroutable { .. } | RouteError::DegenerateNet(_))) => {
                    let blockers = std::mem::take(&mut self.last_blockers);
                    let rippable: Vec<NetId> = blockers
                        .into_iter()
                        .filter(|&b| design.route(b).is_some())
                        .collect();
                    let tries = retries.entry(net.0).or_insert(0);
                    if rips_left > 0 && *tries < MAX_RETRIES_PER_NET && !rippable.is_empty() {
                        // One deterministic step per rip-up decision.
                        if self.control.charge(1).is_some() {
                            self.stats = snapshot;
                            queue.push_front(net);
                            break;
                        }
                        let _span = ocr_obs::span("level_b.rip");
                        *tries += 1;
                        ocr_obs::count("level_b.retries", 1);
                        rips_left -= 1;
                        for b in rippable {
                            let route = design.routes[b.index()].take().expect("routed");
                            self.clear_occupancy(b, &route);
                            self.stats.rips += 1;
                            ocr_obs::count("level_b.rips", 1);
                            self.rip_exclusions.entry(net.0).or_default().push(b.0);
                            queue.push_back(b);
                        }
                        queue.push_front(net);
                    } else {
                        let reason = match err {
                            RouteError::DegenerateNet(_) => DegradeReason::Degenerate,
                            _ if self.doomed_nets.contains(&net.0) => DegradeReason::DoomedTerminal,
                            _ => DegradeReason::Unroutable,
                        };
                        degraded.push(net, reason);
                        design.set_failed(net);
                    }
                }
                Err(e) => {
                    if !self.config.salvage {
                        return Err(e);
                    }
                    // route_net already rolled back the net's partial
                    // wiring; record the reason and keep going.
                    let reason = match &e {
                        RouteError::TerminalOffGrid { .. } => DegradeReason::TerminalOffGrid,
                        RouteError::TerminalConflict { .. } => DegradeReason::TerminalConflict,
                        _ => DegradeReason::Unroutable,
                    };
                    degraded.push(net, reason);
                    design.set_failed(net);
                }
            }
        }
        // The final checkpoint goes out *before* the remaining nets are
        // degraded, so a tripped run's checkpoint still lists them as
        // pending and a resume re-attempts them.
        if let Some(spec) = &session.checkpoint {
            self.write_checkpoint_file(spec, &design, &degraded, &queue, rips_left, &retries)?;
        }
        if let Some(reason) = self.control.tripped() {
            let degrade = match reason {
                TripReason::BudgetExceeded => DegradeReason::BudgetExceeded,
                TripReason::Cancelled | TripReason::DeadlineExceeded => DegradeReason::Cancelled,
            };
            ocr_obs::count("run.cancelled", 1);
            while let Some(net) = queue.pop_front() {
                degraded.push(net, degrade.clone());
                design.set_failed(net);
            }
        }
        ocr_obs::count("run.steps", self.control.steps() - steps_before);
        self.stats.nets_routed = self
            .nets
            .iter()
            .filter(|&&n| design.route(n).is_some())
            .count();
        self.stats.nets_failed = design.failed.len();
        degraded.salvaged_routes = self.stats.nets_routed;
        Ok(LevelBResult {
            design,
            stats: self.stats,
            degraded,
        })
    }

    /// Seeds the router from checkpointed progress: validates that the
    /// checkpoint covers exactly this run's Level B net set, replays the
    /// committed wiring onto the grid, and restores the degradation and
    /// rip-up bookkeeping wholesale.
    fn seed_from_resume(
        &mut self,
        resume: &LevelBResume,
        design: &mut RoutedDesign,
        degraded: &mut Degradation,
    ) -> Result<(), RouteError> {
        // Every net of this Level B set must be accounted for exactly
        // once across routed/failed/pending. The checkpoint parser
        // already rejected double declarations within the file, so set
        // equality is the whole check.
        let declared: std::collections::HashSet<u32> = resume
            .routed
            .iter()
            .map(|(n, _)| n.0)
            .chain(resume.failed.iter().map(|(n, _)| n.0))
            .chain(resume.pending.iter().map(|n| n.0))
            .collect();
        let ours: std::collections::HashSet<u32> = self.nets.iter().map(|n| n.0).collect();
        if declared != ours {
            return Err(RouteError::Checkpoint(format!(
                "checkpoint covers {} nets but this run's Level B set has {} \
                 (the sets differ — was the checkpoint written for another chip or flow?)",
                declared.len(),
                ours.len()
            )));
        }
        for &(net, (i, j)) in &resume.unrouted {
            if i >= self.grid.nv() || j >= self.grid.nh() {
                return Err(RouteError::Checkpoint(format!(
                    "unrouted cell ({i}, {j}) of {net} is outside the {}x{} grid",
                    self.grid.nv(),
                    self.grid.nh()
                )));
            }
        }
        for (net, route) in &resume.routed {
            if degraded.covers(*net) {
                return Err(RouteError::Checkpoint(format!(
                    "{net} is routed in the checkpoint but rejected at grid build time"
                )));
            }
            self.replay_route(*net, route);
            design.set_route(*net, route.clone());
        }
        for (net, reason) in &resume.failed {
            // Setup rejections were already re-recorded by the fresh
            // grid build; `push` keeps the first reason, so this only
            // adds the mid-run failures (in their checkpointed order).
            degraded.push(*net, reason.clone());
            design.set_failed(*net);
        }
        // Restored verbatim: the floating-point duplication-cost sum
        // follows this list's order, so reordering it would change
        // routing decisions versus the uninterrupted run.
        self.unrouted_cells = resume.unrouted.iter().map(|&(n, c)| (n, c)).collect();
        self.rip_exclusions = resume
            .exclusions
            .iter()
            .map(|(n, v)| (*n, v.clone()))
            .collect();
        self.stats = resume.stats;
        Ok(())
    }

    /// Re-applies a checkpointed route's grid occupancy exactly as
    /// [`LevelBRouter::commit_path`] produced it: segments occupy their
    /// runs on the plane their layer names, and metal3–metal4 vias
    /// (corners and attachment ties) occupy both planes at their cell.
    /// Terminal via stacks (lower layer below metal3) never touched
    /// grid state, so they are skipped.
    fn replay_route(&mut self, net: NetId, route: &NetRoute) {
        for seg in &route.segs {
            let (Some(a), Some(b)) = (self.grid.snap(seg.a()), self.grid.snap(seg.b())) else {
                continue;
            };
            match seg.dir() {
                Dir::Horizontal => self.grid.occupy_run(Dir::Horizontal, a.1, a.0, b.0, net.0),
                Dir::Vertical => self.grid.occupy_run(Dir::Vertical, a.0, a.1, b.1, net.0),
            }
        }
        for via in &route.vias {
            if via.lower != Layer::Metal3 || via.upper != Layer::Metal4 {
                continue;
            }
            if let Some((i, j)) = self.grid.snap(via.at) {
                self.grid
                    .set_state(Dir::Horizontal, i, j, CellState::Used(net.0));
                self.grid
                    .set_state(Dir::Vertical, i, j, CellState::Used(net.0));
            }
        }
    }

    /// Serializes the run's current state into the checkpoint file named
    /// by `spec`, overwriting the previous checkpoint.
    fn write_checkpoint_file(
        &self,
        spec: &CheckpointSpec,
        design: &RoutedDesign,
        degraded: &Degradation,
        queue: &std::collections::VecDeque<NetId>,
        rips_left: usize,
        retries: &std::collections::HashMap<u32, usize>,
    ) -> Result<(), RouteError> {
        let _span = ocr_obs::span("ckpt.write");
        let routed: Vec<(NetId, NetRoute)> = self
            .nets
            .iter()
            .filter_map(|&n| design.route(n).map(|r| (n, r.clone())))
            .collect();
        let failed: Vec<(NetId, String)> = design
            .failed
            .iter()
            .map(|&n| {
                let reason = degraded.reason(n).unwrap_or(&DegradeReason::Unroutable);
                (n, reason_token(reason))
            })
            .collect();
        let mut exclusions: Vec<(NetId, Vec<NetId>)> = self
            .rip_exclusions
            .iter()
            .map(|(&n, v)| (NetId(n), v.iter().map(|&x| NetId(x)).collect()))
            .collect();
        exclusions.sort_by_key(|(n, _)| n.0);
        let mut retry_pairs: Vec<(NetId, u64)> = retries
            .iter()
            .filter(|&(_, &c)| c > 0)
            .map(|(&n, &c)| (NetId(n), c as u64))
            .collect();
        retry_pairs.sort_by_key(|(n, _)| n.0);
        let doc = CheckpointDoc {
            flow: spec.flow.clone(),
            chip_hash: spec.chip_hash,
            salvage: self.config.salvage,
            steps: self.control.steps(),
            rips_left: rips_left as u64,
            stats: stats_to_pairs(&self.stats),
            routed,
            failed,
            pending: queue.iter().copied().collect(),
            unrouted: self
                .unrouted_cells
                .iter()
                .map(|&(n, (i, j))| (n, i, j))
                .collect(),
            exclusions,
            retries: retry_pairs,
        };
        let text = write_checkpoint(self.layout, &doc);
        write_checkpoint_text(&spec.path, &text)
    }

    /// Removes a route's wiring from the grid (rip-up or failed-net
    /// rollback), restoring the net's terminal reservations and its
    /// entries in the unrouted-terminal list.
    fn clear_occupancy(&mut self, net: NetId, route: &NetRoute) {
        for seg in &route.segs {
            let (Some(a), Some(b)) = (self.grid.snap(seg.a()), self.grid.snap(seg.b())) else {
                continue;
            };
            // Segment endpoints carry the routing direction, not a
            // coordinate order: a branch routed toward the Steiner
            // attachment runs high-to-low as often as not. Normalize
            // before freeing — an empty `hi..=lo` range here silently
            // leaves every cell of the span `Used`, and the ripped net
            // haunts the grid as phantom blockage.
            match seg.dir() {
                Dir::Horizontal => {
                    let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
                    for i in lo..=hi {
                        self.grid
                            .set_state(Dir::Horizontal, i, a.1, CellState::Free);
                    }
                }
                Dir::Vertical => {
                    let (lo, hi) = (a.1.min(b.1), a.1.max(b.1));
                    for j in lo..=hi {
                        self.grid.set_state(Dir::Vertical, a.0, j, CellState::Free);
                    }
                }
            }
        }
        for via in &route.vias {
            if let Some((i, j)) = self.grid.snap(via.at) {
                for d in Dir::BOTH {
                    if matches!(self.grid.state(d, i, j), CellState::Used(n) if n == net.0) {
                        self.grid.set_state(d, i, j, CellState::Free);
                    }
                }
            }
        }
        self.restore_terminals(net);
    }

    /// Re-reserves a net's terminal cells and re-enters them in the
    /// unrouted-terminal list after its wiring was removed from the grid.
    fn restore_terminals(&mut self, net: NetId) {
        for &pid in &self.layout.net(net).pins {
            let Some(cell) = self.grid.snap(self.layout.pin(pid).position) else {
                continue;
            };
            for d in Dir::BOTH {
                if self.grid.state(d, cell.0, cell.1).is_free() {
                    self.grid
                        .set_state(d, cell.0, cell.1, CellState::Used(net.0));
                }
            }
            // Doomed terminals (blocked on both planes) never entered
            // the unrouted list; keep them out on restore too.
            let doomed = Dir::BOTH
                .into_iter()
                .all(|d| matches!(self.grid.state(d, cell.0, cell.1), CellState::Blocked));
            if !doomed && !self.unrouted_cells.contains(&(net, cell)) {
                self.unrouted_cells.push((net, cell));
            }
        }
    }

    /// Removes *every* cell owned by `net` from the grid with a full
    /// sweep, then restores its terminal reservations. The rollback of
    /// last resort: a panic mid-`route_net` leaves partially committed
    /// wiring with no route object to walk, so `clear_occupancy` cannot
    /// reach it.
    fn scrub_net(&mut self, net: NetId) {
        for j in 0..self.grid.nh() {
            for i in 0..self.grid.nv() {
                for d in Dir::BOTH {
                    if matches!(self.grid.state(d, i, j), CellState::Used(n) if n == net.0) {
                        self.grid.set_state(d, i, j, CellState::Free);
                    }
                }
            }
        }
        self.restore_terminals(net);
    }

    /// Victims previously ripped for `net` that its next soft-path
    /// probes must avoid. Cleared when the net routes successfully, so
    /// this is empty for every routed net.
    pub fn rip_exclusions(&self, net: NetId) -> Vec<NetId> {
        self.rip_exclusions
            .get(&net.0)
            .map(|v| v.iter().copied().map(NetId).collect())
            .unwrap_or_default()
    }

    /// Routes one net (two-terminal directly, multi-terminal through the
    /// Steiner decomposition) and commits its wiring to the grid.
    pub fn route_net(&mut self, net: NetId) -> Result<NetRoute, RouteError> {
        let _span = ocr_obs::span("level_b.route_net");
        // Chaos hook: an armed plan may panic or stall here to exercise
        // salvage isolation. Disarmed, this is a no-op.
        ocr_fault::point("level_b.route_net");
        // This net's terminals are now being routed: drop them from the
        // unrouted list so `dup` only penalizes *other* nets' terminals.
        self.unrouted_cells.retain(|&(n, _)| n != net);

        let mut pts: Vec<Point> = self
            .layout
            .net(net)
            .pins
            .iter()
            .map(|&p| self.layout.pin(p).position)
            .collect();
        pts.sort();
        pts.dedup();
        if pts.len() < 2 {
            return Err(RouteError::DegenerateNet(net));
        }

        let mut route = NetRoute::new();
        let seed = pts[0];
        let mut acc = SteinerAccumulator::new(seed);
        let mut unconnected: Vec<Point> = pts[1..].to_vec();
        while !unconnected.is_empty() {
            let (k, attach, _) = acc
                .select_next(&unconnected)
                .expect("unconnected is non-empty");
            let q = unconnected.remove(k);
            match self.route_branch(net, q, attach, &mut route) {
                Ok(points) => {
                    acc.absorb_path(&points);
                    self.stats.connections += 1;
                    ocr_obs::count("level_b.connections", 1);
                }
                Err(e) => {
                    // Roll back this net's partial wiring so a failed
                    // net leaves no debris on the grid.
                    self.clear_occupancy(net, &route);
                    return Err(e);
                }
            }
        }

        // Terminal via stacks from the pin layers up to the over-cell
        // wiring (the paper's "only final connections to net terminals
        // are allowed to pass through intervening routing layers").
        for &pid in &self.layout.net(net).pins {
            let pin = self.layout.pin(pid);
            let cell = self.grid.snap(pin.position).expect("terminal on grid");
            let v_used = matches!(
                self.grid.state(Dir::Vertical, cell.0, cell.1),
                CellState::Used(n) if n == net.0
            ) && self.wiring_touches(net, pin.position, Dir::Vertical);
            let target = if v_used { Layer::Metal4 } else { Layer::Metal3 };
            if pin.layer != target {
                route.vias.push(Via::new(pin.position, pin.layer, target));
            }
        }
        // Merge wiring shared by several Steiner branches so metrics
        // never double-count it.
        route.normalize();
        Ok(route)
    }

    /// `true` if the committed route geometry actually has a wire on the
    /// plane `dir` at `p` (terminal reservation alone marks cells used,
    /// so the cell state over-approximates).
    fn wiring_touches(&self, net: NetId, p: Point, dir: Dir) -> bool {
        // Conservative: consult the occupancy of neighbours along the
        // plane direction — a lone reserved terminal has no used
        // neighbour on that plane.
        let Some((i, j)) = self.grid.snap(p) else {
            return false;
        };
        let own = |i, j| matches!(self.grid.state(dir, i, j), CellState::Used(n) if n == net.0);
        match dir {
            Dir::Vertical => (j > 0 && own(i, j - 1)) || (j + 1 < self.grid.nh() && own(i, j + 1)),
            Dir::Horizontal => {
                (i > 0 && own(i - 1, j)) || (i + 1 < self.grid.nv() && own(i + 1, j))
            }
        }
    }

    /// Routes one two-terminal branch: MBFS + path selection first, then
    /// (if enabled) the complete maze fallback. Returns the branch's
    /// path points for the Steiner accumulator.
    fn route_branch(
        &mut self,
        net: NetId,
        q: Point,
        attach: Point,
        route: &mut NetRoute,
    ) -> Result<Vec<Point>, RouteError> {
        // Chaos hook: force a hard-blocked outcome (with honest blocker
        // probing, so rip-up storms ensue) when a plan fires here.
        if ocr_fault::point("level_b.force_unroutable") {
            self.probe_blockers(net, q, attach);
            return Err(RouteError::Unroutable { net });
        }
        match self.find_path(net, q, attach) {
            Ok(path) => {
                let _span = ocr_obs::span("level_b.commit");
                self.commit_path(net, &path, route);
                self.connect_attachment(net, attach, &path.points, route);
                self.stats.corners += path.corners;
                self.stats.wire_length += path_wl(&path.points);
                Ok(path.points)
            }
            Err(RouteError::Unroutable { .. }) if self.config.maze_fallback => {
                self.maze_branch(net, q, attach, route)
            }
            Err(e) => Err(e),
        }
    }

    /// Completes a branch with the A* maze router (`astar: true`;
    /// complete, unlike the MBFS). The maze path occupies the grid itself; only attachment
    /// stitching remains.
    fn maze_branch(
        &mut self,
        net: NetId,
        q: Point,
        attach: Point,
        route: &mut NetRoute,
    ) -> Result<Vec<Point>, RouteError> {
        let opts = ocr_maze::MazeOptions {
            via_cost: self.layout.rules.over_cell_pitch(),
            astar: true,
        };
        let maze = {
            let _span = ocr_obs::span("level_b.maze");
            ocr_maze::route_maze_with(
                &mut self.grid,
                net.0,
                q,
                attach,
                opts,
                &mut self.scratch.maze,
            )
        };
        let path = match maze {
            Ok(p) => p,
            Err(_) => {
                self.probe_blockers(net, q, attach);
                return Err(RouteError::Unroutable { net });
            }
        };
        let _span = ocr_obs::span("level_b.commit");
        self.stats.maze_fallbacks += 1;
        self.stats.maze_expanded += path.expanded;
        ocr_obs::count("level_b.maze_fallbacks", 1);
        ocr_obs::count("level_b.maze_expanded", path.expanded as u64);
        self.stats.corners += path.route.corner_count();
        self.stats.wire_length += path.route.wire_length();
        let points = maze_points(&self.grid, &path);
        route.extend(path.route);
        self.connect_attachment(net, attach, &points, route);
        Ok(points)
    }

    /// Hard-blocked: asks the soft search which routed nets stand in the
    /// cheapest way (for rip-up-and-reroute), recording them in
    /// `last_blockers`.
    fn probe_blockers(&mut self, net: NetId, q: Point, attach: Point) {
        if self.config.rip_up_budget == 0 {
            return;
        }
        let _span = ocr_obs::span("level_b.probe");
        let via_cost = self.layout.rules.over_cell_pitch();
        // Terminal cells survive rip-up, so exclude them — every named
        // blocker is then genuinely removable. Victims already ripped
        // for this net are excluded too, so repeated probes explore
        // different lanes.
        let terminals = &self.terminal_cells;
        let grid = &self.grid;
        let empty: Vec<u32> = Vec::new();
        let excluded = self.rip_exclusions.get(&net.0).unwrap_or(&empty);
        let rippable = |i: usize, j: usize| {
            if terminals.contains(&(i, j)) {
                return false;
            }
            for d in Dir::BOTH {
                if let CellState::Used(n) = grid.state(d, i, j) {
                    if excluded.contains(&n) {
                        return false;
                    }
                }
            }
            true
        };
        if let Ok(soft) = ocr_maze::find_soft_path_with(
            grid,
            net.0,
            q,
            attach,
            via_cost,
            1_000_000,
            rippable,
            &mut self.scratch.maze,
        ) {
            self.last_blockers = soft.blockers.into_iter().map(NetId).collect();
        }
    }

    /// Finds the best path for one two-terminal connection, expanding
    /// the search window on failure.
    fn find_path(
        &mut self,
        net: NetId,
        from: Point,
        to: Point,
    ) -> Result<CandidatePath, RouteError> {
        let a = self
            .grid
            .snap(from)
            .ok_or(RouteError::TerminalOffGrid { net, at: from })?;
        let b = self
            .grid
            .snap(to)
            .ok_or(RouteError::TerminalOffGrid { net, at: to })?;
        let mut margin = INITIAL_WINDOW_MARGIN;
        let mut terminals: Vec<(usize, usize)> = Vec::new();
        let sensitive: Vec<u32> = self
            .config
            .sensitive_nets
            .iter()
            .filter(|&&n| n != net)
            .map(|n| n.0)
            .collect();
        let mut attempt = 0usize;
        let mut prev_window: Option<SearchWindow> = None;
        while attempt <= MAX_WINDOW_EXPANSIONS {
            let last = attempt == MAX_WINDOW_EXPANSIONS;
            let window = if last {
                SearchWindow::full(&self.grid)
            } else {
                SearchWindow::around(&self.grid, a, b, margin)
            };
            // Window saturation: once margin doubling has clipped the
            // window to the full grid — equivalently, reproduced the
            // previous attempt's window — re-searching the identical
            // window cannot succeed. Jump straight to the final
            // full-window attempt instead of burning RunControl steps
            // and MBFS passes on byte-identical searches.
            if !last && (window == SearchWindow::full(&self.grid) || Some(window) == prev_window) {
                attempt = MAX_WINDOW_EXPANSIONS;
                continue;
            }
            // One deterministic step per search-window attempt. On a
            // trip the caller unwinds this net's attempt entirely, so a
            // resumed run re-attempts (and re-charges) it from scratch.
            if self.control.charge(1).is_some() {
                return Err(RouteError::Interrupted);
            }
            // Chaos hook: burn a window-expansion attempt as if the
            // search had failed at this margin.
            if ocr_fault::point("level_b.expand") {
                margin = margin.saturating_mul(2).max(1);
                self.stats.window_expansions += 1;
                ocr_obs::count("level_b.window_expansions", 1);
                attempt += 1;
                continue;
            }
            let outcome = {
                let _span = ocr_obs::span("level_b.mbfs");
                search_min_corner_paths(&self.grid, net.0, a, b, &window, &mut self.scratch)
            };
            self.stats.expanded_vertices += outcome.expanded;
            ocr_obs::count("level_b.expanded_vertices", outcome.expanded as u64);
            let mut found = None;
            if outcome.corners.is_some() {
                let _span = ocr_obs::span("level_b.select");
                terminals.clear();
                terminals_near_window(
                    &window,
                    self.config.weights.radius,
                    self.unrouted_cells.iter().map(|&(_, c)| c),
                    &mut terminals,
                );
                let ev = CostEvaluator::new(
                    &self.grid,
                    &terminals,
                    self.config.weights,
                    self.layout.rules.over_cell_pitch(),
                )
                .with_sensitive_nets(&sensitive);
                found = select_best_path(&self.grid, net.0, &outcome, from, to, &ev);
            }
            if let Some(best) = found {
                self.stats.candidates_examined += 1;
                ocr_obs::count("level_b.attempts_ok", 1);
                return Ok(best);
            }
            let failed = if last {
                "level_b.attempts_failed_full"
            } else {
                "level_b.attempts_failed_clipped"
            };
            ocr_obs::count(failed, 1);
            prev_window = Some(window);
            margin = margin.saturating_mul(2).max(1);
            self.stats.window_expansions += 1;
            ocr_obs::count("level_b.window_expansions", 1);
            attempt += 1;
        }
        Err(RouteError::Unroutable { net })
    }

    /// Commits a selected path: occupies the grid and appends geometry.
    fn commit_path(&mut self, net: NetId, path: &CandidatePath, route: &mut NetRoute) {
        let pts = &path.points;
        for (r, &(dir, _track)) in path.tracks.iter().enumerate() {
            let (a, b) = (pts[r], pts[r + 1]);
            if a == b {
                continue;
            }
            let (ai, aj) = self.grid.snap(a).expect("path point on grid");
            let (bi, bj) = self.grid.snap(b).expect("path point on grid");
            match dir {
                Dir::Horizontal => {
                    self.grid.occupy_run(Dir::Horizontal, aj, ai, bi, net.0);
                    route.segs.push(RouteSeg::new(a, b, Layer::Metal3));
                }
                Dir::Vertical => {
                    self.grid.occupy_run(Dir::Vertical, ai, aj, bj, net.0);
                    route.segs.push(RouteSeg::new(a, b, Layer::Metal4));
                }
            }
        }
        // Corner vias between consecutive non-empty runs; corners occupy
        // both planes.
        for c in 1..pts.len() - 1 {
            let prev_empty = pts[c - 1] == pts[c];
            let next_empty = pts[c] == pts[c + 1];
            if prev_empty || next_empty {
                continue;
            }
            let (i, j) = self.grid.snap(pts[c]).expect("corner on grid");
            self.grid
                .set_state(Dir::Horizontal, i, j, CellState::Used(net.0));
            self.grid
                .set_state(Dir::Vertical, i, j, CellState::Used(net.0));
            route
                .vias
                .push(Via::new(pts[c], Layer::Metal3, Layer::Metal4));
        }
    }

    /// Ensures the branch's arrival run is electrically tied to the
    /// component wiring at the attachment point (adds a metal3–metal4
    /// via when the branch arrives on the other plane).
    fn connect_attachment(
        &mut self,
        net: NetId,
        attach: Point,
        pts: &[Point],
        route: &mut NetRoute,
    ) {
        // The arrival run is the last non-empty run of the path; its
        // direction follows from the final pair of distinct points.
        let arrival_dir = pts.windows(2).rev().find(|w| w[0] != w[1]).map(|w| {
            if w[0].y == w[1].y {
                Dir::Horizontal
            } else {
                Dir::Vertical
            }
        });
        let Some(arrival) = arrival_dir else { return };
        let Some((i, j)) = self.grid.snap(attach) else {
            return;
        };
        let other = arrival.perp();
        // The other plane counts only if actual *wiring* runs there —
        // a terminal cell's both-plane reservation alone does not (its
        // connectivity comes from the terminal via stack instead).
        let other_wired = self.wiring_touches(net, attach, other);
        let arrival_used_before = route.vias.iter().any(|v| v.at == attach);
        if other_wired && !arrival_used_before {
            // Branch arrives on one plane; component wiring may be on
            // the other. A via ties them (idempotent via dedup later).
            self.grid
                .set_state(Dir::Horizontal, i, j, CellState::Used(net.0));
            self.grid
                .set_state(Dir::Vertical, i, j, CellState::Used(net.0));
            route
                .vias
                .push(Via::new(attach, Layer::Metal3, Layer::Metal4));
        }
    }
}

/// Commits checkpoint text durably: atomic replace (temp + fsync +
/// rename) with bounded retry, so a crash mid-write leaves the previous
/// checkpoint intact instead of a torn file. The `ckpt.write` fault
/// site injects transient failures ahead of the real write.
pub(crate) fn write_checkpoint_text(path: &std::path::Path, text: &str) -> Result<(), RouteError> {
    ocr_io::retry_io(|| {
        if ocr_fault::point("ckpt.write") {
            return Err(std::io::Error::other("injected transient write failure"));
        }
        ocr_io::atomic_write(path, text)
    })
    .map_err(|e| RouteError::Checkpoint(format!("cannot write {}: {e}", path.display())))
}

fn path_wl(points: &[Point]) -> i64 {
    points
        .windows(2)
        .map(|w| ocr_geom::manhattan(w[0], w[1]))
        .sum()
}

/// Run-boundary points of a maze path (start, every plane change, end)
/// for the Steiner accumulator and attachment stitching.
fn maze_points(grid: &GridModel, path: &ocr_maze::MazePath) -> Vec<Point> {
    let nodes = &path.nodes;
    let mut pts = Vec::new();
    if nodes.is_empty() {
        return pts;
    }
    pts.push(grid.point(nodes[0].0, nodes[0].1));
    for w in nodes.windows(2) {
        if w[0].2 != w[1].2 {
            let p = grid.point(w[1].0, w[1].1);
            if *pts.last().expect("non-empty") != p {
                pts.push(p);
            }
        }
    }
    let last = nodes.last().expect("non-empty");
    let p = grid.point(last.0, last.1);
    if *pts.last().expect("non-empty") != p {
        pts.push(p);
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use ocr_geom::{LayerSet, Rect};
    use ocr_netlist::{NetClass, Obstacle};

    fn layout_with_nets(pins: &[&[Point]]) -> (Layout, Vec<NetId>) {
        let mut l = Layout::new(Rect::new(0, 0, 400, 400));
        let mut ids = Vec::new();
        for (k, net_pins) in pins.iter().enumerate() {
            let n = l.add_net(format!("n{k}"), NetClass::Signal);
            for &p in net_pins.iter() {
                l.add_pin(n, None, p, Layer::Metal2);
            }
            ids.push(n);
        }
        (l, ids)
    }

    fn route(layout: &Layout, nets: &[NetId]) -> LevelBResult {
        let mut r = LevelBRouter::new(layout, nets, LevelBConfig::default()).expect("router");
        r.route_all().expect("route_all")
    }

    #[test]
    fn two_terminal_net_routes_and_validates() {
        let (l, nets) = layout_with_nets(&[&[Point::new(20, 30), Point::new(300, 200)]]);
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_routed, 1);
        let report = ocr_verify::verify(&l, &res.design);
        assert!(report.is_clean(), "{report}");
        // L-shaped: one corner.
        assert_eq!(res.design.route(nets[0]).expect("routed").corner_count(), 1);
    }

    #[test]
    fn straight_net_has_no_corner_via() {
        let (l, nets) = layout_with_nets(&[&[Point::new(20, 50), Point::new(300, 50)]]);
        let res = route(&l, &nets);
        let r = res.design.route(nets[0]).expect("routed");
        assert_eq!(r.corner_count(), 0);
        // One terminal stack per pin (M2→M3).
        assert_eq!(r.vias.len(), 2);
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn multi_terminal_net_uses_steiner_trunk() {
        let (l, nets) = layout_with_nets(&[&[
            Point::new(20, 100),
            Point::new(300, 100),
            Point::new(160, 250),
        ]]);
        let res = route(&l, &nets);
        let r = res.design.route(nets[0]).expect("routed");
        let report = ocr_verify::verify(&l, &res.design);
        assert!(report.is_clean(), "{report}");
        // Steiner: total length below the star topology.
        let star = 280 + 290; // seed to each other terminal
        assert!(
            r.wire_length() < star,
            "wl {} vs star {star}",
            r.wire_length()
        );
    }

    #[test]
    fn obstacle_is_avoided() {
        let (mut l, nets) = layout_with_nets(&[&[Point::new(20, 200), Point::new(380, 200)]]);
        l.add_obstacle(Obstacle::new(
            Rect::new(150, 100, 250, 300),
            LayerSet::level_b(),
        ));
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_failed, 0);
        let report = ocr_verify::verify(&l, &res.design);
        assert!(report.is_clean(), "{report}");
        let r = res.design.route(nets[0]).expect("routed");
        assert!(r.wire_length() > 360, "must detour around the obstacle");
    }

    #[test]
    fn two_nets_do_not_short() {
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 100), Point::new(380, 100)],
            &[Point::new(20, 100 + 10), Point::new(380, 110)],
        ]);
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_routed, 2);
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn crossing_nets_route_on_different_planes() {
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 200), Point::new(380, 200)],
            &[Point::new(200, 20), Point::new(200, 380)],
        ]);
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_routed, 2);
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn terminal_conflict_is_detected() {
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 20), Point::new(100, 100)],
            &[Point::new(20, 20), Point::new(200, 200)],
        ]);
        let err = LevelBRouter::new(&l, &nets, LevelBConfig::default()).unwrap_err();
        assert!(matches!(err, RouteError::TerminalConflict { .. }));
    }

    #[test]
    fn sealed_terminal_fails_gracefully() {
        let (mut l, nets) = layout_with_nets(&[&[Point::new(200, 200), Point::new(380, 380)]]);
        // Box around the first terminal on both planes.
        l.add_obstacle(Obstacle::new(
            Rect::new(150, 150, 250, 250),
            LayerSet::level_b(),
        ));
        // Terminal at (200,200) is inside the obstacle: blocked.
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_failed, 1);
        assert_eq!(res.design.failed, vec![nets[0]]);
    }

    #[test]
    fn many_nets_dense_grid_all_route() {
        // A ladder of 8 parallel nets plus 2 crossing nets.
        let mut pins: Vec<Vec<Point>> = Vec::new();
        for k in 0..8 {
            let y = 40 + 40 * k;
            pins.push(vec![Point::new(20, y), Point::new(380, y)]);
        }
        pins.push(vec![Point::new(40, 20), Point::new(40, 380)]);
        pins.push(vec![Point::new(360, 20), Point::new(360, 380)]);
        let pin_refs: Vec<&[Point]> = pins.iter().map(|v| v.as_slice()).collect();
        let (l, nets) = layout_with_nets(&pin_refs);
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_routed, 10);
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    /// Two nets contending for a single grid chokepoint: a wall blocks
    /// the vertical plane on one row everywhere except one column, so
    /// only one net can cross. Rip-up lets the *later* net rip the
    /// earlier one and claim the crossing (showing clear + re-route
    /// works); without rip-up the later net simply fails.
    fn chokepoint_layout() -> (Layout, Vec<NetId>) {
        let mut l = Layout::new(Rect::new(0, 0, 400, 400));
        // Block the vertical plane along the row band y∈(195,205)
        // everywhere except a gap at x = 200, and the horizontal plane
        // fully (no horizontal travel inside the wall).
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
        // Both nets need to cross the wall, and the only crossing is the
        // vertical-plane cell at (200, 200).
        let a = l.add_net("first", NetClass::Signal);
        l.add_pin(a, None, Point::new(100, 100), Layer::Metal2);
        l.add_pin(a, None, Point::new(100, 300), Layer::Metal2);
        let b = l.add_net("second", NetClass::Signal);
        l.add_pin(b, None, Point::new(300, 110), Layer::Metal2);
        l.add_pin(b, None, Point::new(300, 310), Layer::Metal2);
        (l, vec![a, b])
    }

    #[test]
    fn rip_up_lets_the_blocked_net_claim_the_chokepoint() {
        let (l, nets) = chokepoint_layout();
        // Without rip-up: whichever routes first wins, the other fails.
        let mut plain = LevelBRouter::new(
            &l,
            &nets,
            LevelBConfig {
                rip_up_budget: 0,
                ordering: crate::order::NetOrdering::User(nets.clone()),
                ..LevelBConfig::default()
            },
        )
        .expect("router");
        let res0 = plain.route_all().expect("route_all");
        assert_eq!(res0.stats.nets_routed, 1);
        assert!(
            res0.design.route(nets[0]).is_some(),
            "first net holds the gap"
        );
        assert_eq!(res0.design.failed, vec![nets[1]]);

        // With rip-up: the second net rips the first and routes; the
        // first re-routes and fails (the chokepoint admits one net), so
        // completion count is the same but ownership flipped — and the
        // grid stayed consistent throughout.
        let mut ripper = LevelBRouter::new(
            &l,
            &nets,
            LevelBConfig {
                rip_up_budget: 1,
                ordering: crate::order::NetOrdering::User(nets.clone()),
                ..LevelBConfig::default()
            },
        )
        .expect("router");
        let res1 = ripper.route_all().expect("route_all");
        assert!(res1.stats.rips >= 1, "a rip must have happened");
        assert!(res1.design.route(nets[1]).is_some(), "second net rescued");
        // Whatever routed must verify cleanly (the loser is declared
        // failed, so only its geometry is checked).
        let report = ocr_verify::verify(&l, &res1.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn failed_net_leaves_no_grid_debris() {
        let (l, nets) = chokepoint_layout();
        let mut router = LevelBRouter::new(
            &l,
            &nets,
            LevelBConfig {
                rip_up_budget: 0,
                ordering: crate::order::NetOrdering::User(nets.clone()),
                ..LevelBConfig::default()
            },
        )
        .expect("router");
        let res = router.route_all().expect("route_all");
        assert_eq!(res.design.failed, vec![nets[1]]);
        // All cells used on the grid must belong to net 0's route or to
        // terminal reservations — net 1's rollback freed everything else.
        let g = router.grid();
        let mut used_by_1 = 0;
        for j in 0..g.nh() {
            for i in 0..g.nv() {
                for d in Dir::BOTH {
                    if matches!(g.state(d, i, j), CellState::Used(n) if n == nets[1].0) {
                        used_by_1 += 1;
                    }
                }
            }
        }
        // Exactly the two terminal cells × two planes each.
        assert_eq!(
            used_by_1, 4,
            "rollback must leave only terminal reservations"
        );
    }

    #[test]
    fn sensitive_net_term_steers_the_corner_away() {
        // Sensitive net S runs horizontally near the lower-right corner
        // option of net N's two equal-length 1-corner L paths. With
        // w24 > 0 (and the other corner terms off to isolate it), N's
        // corner must land on the upper-left instead.
        let mut l = Layout::new(Rect::new(0, 0, 400, 400));
        let s = l.add_net("sensitive", NetClass::Signal);
        l.add_pin(s, None, Point::new(200, 30), Layer::Metal2);
        l.add_pin(s, None, Point::new(390, 30), Layer::Metal2);
        let n = l.add_net("victim", NetClass::Signal);
        l.add_pin(n, None, Point::new(100, 50), Layer::Metal2);
        l.add_pin(n, None, Point::new(350, 300), Layer::Metal2);

        let run = |w24: f64, sensitive: Vec<NetId>| -> Point {
            let cfg = LevelBConfig {
                weights: crate::cost::CostWeights {
                    w21: 0.0,
                    w22: 0.0,
                    w23: 0.0,
                    w24,
                    ..crate::cost::CostWeights::default()
                },
                sensitive_nets: sensitive,
                // The sensitive net must be in place before the victim
                // routes, or there is nothing to avoid.
                ordering: crate::order::NetOrdering::User(vec![s, n]),
                ..LevelBConfig::default()
            };
            let mut r = LevelBRouter::new(&l, &[s, n], cfg).expect("router");
            let res = r.route_all().expect("routes");
            assert_eq!(res.stats.nets_failed, 0);
            // N's corner via is the one not at a terminal.
            let route = res.design.route(n).expect("routed");
            route
                .vias
                .iter()
                .find(|v| {
                    v.lower == Layer::Metal3
                        && v.upper == Layer::Metal4
                        && v.at != Point::new(100, 50)
                        && v.at != Point::new(350, 300)
                })
                .expect("corner via")
                .at
        };
        // With the term active, the corner avoids the sensitive wire at
        // y=30 near x=350: it must be the upper-left corner (100, 300).
        let steered = run(5.0, vec![s]);
        assert_eq!(steered, Point::new(100, 300));
        // Without it (w24 = 0) both corners tie; the router may pick
        // either, but the term's activation must be what guarantees the
        // avoidance — assert the evaluator actually distinguishes them.
        let cfg_probe = run(0.0, vec![]);
        let _ = cfg_probe; // either corner is acceptable here
    }

    #[test]
    fn five_pin_net_with_obstacle_routes_connected() {
        let (mut l, nets) = layout_with_nets(&[&[
            Point::new(40, 40),
            Point::new(360, 40),
            Point::new(40, 360),
            Point::new(360, 360),
            Point::new(200, 200),
        ]]);
        l.add_obstacle(Obstacle::new(
            Rect::new(120, 120, 180, 280),
            LayerSet::level_b(),
        ));
        let res = route(&l, &nets);
        assert_eq!(res.stats.nets_failed, 0);
        assert_eq!(res.stats.connections, 4, "n pins need n-1 branches");
        let report = ocr_verify::verify(&l, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn window_expansion_rescues_detours_outside_the_initial_window() {
        // Terminals close together; a wall forces a detour far outside
        // the initial window, so the router must expand it.
        let (mut l, nets) = layout_with_nets(&[&[Point::new(100, 200), Point::new(160, 200)]]);
        l.add_obstacle(Obstacle::new(
            Rect::new(125, 50, 135, 350),
            LayerSet::level_b(),
        ));
        let mut r = LevelBRouter::new(&l, &nets, LevelBConfig::default()).expect("router");
        let res = r.route_all().expect("routes");
        assert_eq!(res.stats.nets_failed, 0);
        assert!(res.stats.window_expansions > 0, "window had to grow");
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn saturated_window_skips_byte_identical_reattempts() {
        // A wall seals both planes across the full width, so the net is
        // unroutable at any window. The terminals sit close enough to
        // the region corners that the *first* clipped window already
        // covers the whole grid — every further margin doubling would
        // re-search a byte-identical window. The router must detect the
        // saturation, jump straight to the final full-window attempt,
        // and charge exactly one RunControl step instead of
        // MAX_WINDOW_EXPANSIONS + 1.
        let (mut l, nets) = layout_with_nets(&[&[Point::new(20, 20), Point::new(380, 380)]]);
        l.add_obstacle(Obstacle::new(
            Rect::new(-5, 195, 405, 205),
            LayerSet::level_b(),
        ));
        let mut r = LevelBRouter::new(
            &l,
            &nets,
            LevelBConfig {
                rip_up_budget: 0,
                ..LevelBConfig::default()
            },
        )
        .expect("router");
        let session = RunSession::with_control(RunControl::new());
        let res = r.route_all_with(&session).expect("route_all");
        assert_eq!(res.stats.nets_failed, 1);
        assert_eq!(
            session.control.steps(),
            1,
            "one step: the single full-window attempt"
        );
        assert_eq!(
            res.stats.window_expansions, 1,
            "only the searched attempt counts, not the skipped ones"
        );
    }

    #[test]
    fn unsaturated_windows_still_charge_each_attempt() {
        // Same sealed wall, but terminals hugging the left edge: the
        // tight windows genuinely grow sideways for a while before
        // saturating, and each *distinct* window must still charge its
        // step and count its expansion.
        let (mut l, nets) = layout_with_nets(&[&[Point::new(20, 20), Point::new(20, 380)]]);
        l.add_obstacle(Obstacle::new(
            Rect::new(-5, 195, 405, 205),
            LayerSet::level_b(),
        ));
        let mut r = LevelBRouter::new(
            &l,
            &nets,
            LevelBConfig {
                rip_up_budget: 0,
                ..LevelBConfig::default()
            },
        )
        .expect("router");
        let session = RunSession::with_control(RunControl::new());
        let res = r.route_all_with(&session).expect("route_all");
        assert_eq!(res.stats.nets_failed, 1);
        assert!(
            res.stats.window_expansions > 1,
            "growing windows are real attempts"
        );
        assert_eq!(
            session.control.steps(),
            res.stats.window_expansions as u64,
            "every searched window charges exactly one step"
        );
    }

    #[test]
    fn non_finite_weights_are_rejected_at_construction() {
        let (l, nets) = layout_with_nets(&[&[Point::new(20, 30), Point::new(300, 200)]]);
        for (field, weights) in [
            (
                "w1",
                CostWeights {
                    w1: f64::NAN,
                    ..CostWeights::default()
                },
            ),
            (
                "w23",
                CostWeights {
                    w23: f64::INFINITY,
                    ..CostWeights::default()
                },
            ),
        ] {
            // Salvage must not downgrade a poisoned config to per-net
            // failures: the whole run is rejected before any net runs.
            for salvage in [false, true] {
                let err = LevelBRouter::new(
                    &l,
                    &nets,
                    LevelBConfig {
                        weights,
                        salvage,
                        ..LevelBConfig::default()
                    },
                )
                .err()
                .unwrap_or_else(|| panic!("{field} salvage={salvage}: must be rejected"));
                assert!(
                    matches!(
                        err,
                        RouteError::InvalidWeights(crate::cost::WeightsError::NonFinite {
                            field: f,
                            ..
                        }) if f == field
                    ),
                    "{field}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn salvage_degrades_setup_rejects_instead_of_erroring() {
        // Net 0 and 1 share a terminal (conflict); net 2 is fine.
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 20), Point::new(100, 100)],
            &[Point::new(20, 20), Point::new(200, 200)],
            &[Point::new(40, 300), Point::new(300, 300)],
        ]);
        let cfg = LevelBConfig {
            salvage: true,
            ..LevelBConfig::default()
        };
        let mut r = LevelBRouter::new(&l, &nets, cfg).expect("salvage never errors on setup");
        let res = r.route_all().expect("salvage never errors on route");
        // Exactly one net degraded: the later of the conflicting pair.
        assert_eq!(res.degraded.nets.len(), 1);
        assert_eq!(
            res.degraded.reason(nets[1]),
            Some(&DegradeReason::TerminalConflict)
        );
        assert_eq!(res.degraded.salvaged_routes, 2);
        // Exhaustiveness: the report mirrors the failed list exactly.
        let mut failed = res.design.failed.clone();
        failed.sort();
        let mut reported: Vec<NetId> = res.degraded.nets.iter().map(|d| d.net).collect();
        reported.sort();
        assert_eq!(failed, reported);
        // The salvaged subset still validates (failed nets declared).
        let report = ocr_verify::verify(&l, &res.design);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn salvage_isolates_a_poisoned_net_and_scrubs_the_grid() {
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 100), Point::new(380, 100)],
            &[Point::new(20, 200), Point::new(380, 200)],
        ]);
        let cfg = LevelBConfig {
            salvage: true,
            ordering: crate::order::NetOrdering::User(nets.clone()),
            ..LevelBConfig::default()
        };
        // Panic the first routed net only; the second must still route.
        let plan = ocr_fault::plan(7)
            .panic_at("level_b.route_net", 1.0, 1)
            .build();
        let mut r = LevelBRouter::new(&l, &nets, cfg).expect("router");
        let res = ocr_fault::with_plan(&plan, || r.route_all()).expect("salvage isolates");
        assert_eq!(res.stats.nets_poisoned, 1);
        assert_eq!(res.degraded.poisoned(), 1);
        assert!(matches!(
            res.degraded.reason(nets[0]),
            Some(DegradeReason::Poisoned { message }) if message.contains("level_b.route_net")
        ));
        assert!(res.design.route(nets[1]).is_some(), "survivor routed");
        assert_eq!(res.design.failed, vec![nets[0]]);
        // The scrub left only the poisoned net's terminal reservations
        // (2 terminals × 2 planes).
        let g = r.grid();
        let mut used_by_0 = 0;
        for j in 0..g.nh() {
            for i in 0..g.nv() {
                for d in Dir::BOTH {
                    if matches!(g.state(d, i, j), CellState::Used(n) if n == nets[0].0) {
                        used_by_0 += 1;
                    }
                }
            }
        }
        assert_eq!(used_by_0, 4, "scrub must leave only terminal cells");
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn forced_unroutable_fault_triggers_rip_storm_but_salvage_completes() {
        let (l, nets) = layout_with_nets(&[
            &[Point::new(20, 100), Point::new(380, 100)],
            &[Point::new(20, 200), Point::new(380, 200)],
            &[Point::new(20, 300), Point::new(380, 300)],
        ]);
        let cfg = LevelBConfig {
            salvage: true,
            ..LevelBConfig::default()
        };
        // Force the first two branch attempts unroutable. On this empty
        // grid the blocker probe names no rippable victims, so those
        // nets degrade as `Unroutable` and the run keeps going.
        let plan = ocr_fault::plan(11)
            .fire_at("level_b.force_unroutable", 1.0, 2)
            .build();
        let mut r = LevelBRouter::new(&l, &nets, cfg).expect("router");
        let res = ocr_fault::with_plan(&plan, || r.route_all()).expect("salvage");
        assert_eq!(plan.total_fires(), 2, "both forced failures spent");
        assert_eq!(res.stats.nets_routed, 1, "cap spent, third net routes");
        assert_eq!(res.degraded.nets.len(), 2);
        assert!(res
            .degraded
            .nets
            .iter()
            .all(|d| d.reason == DegradeReason::Unroutable));
        assert_eq!(res.degraded.salvaged_routes, 1);
        assert!(ocr_verify::verify(&l, &res.design).is_clean());
    }

    #[test]
    fn stats_expansion_counts_accumulate() {
        let (l, nets) = layout_with_nets(&[&[Point::new(20, 30), Point::new(300, 200)]]);
        let res = route(&l, &nets);
        assert!(res.stats.expanded_vertices > 0);
        assert_eq!(res.stats.connections, 1);
    }
}
