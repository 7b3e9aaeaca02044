//! Routing errors of the Level B router and the flows.

use ocr_geom::Point;
use ocr_netlist::NetId;
use std::fmt;

/// Errors from Level B routing and flow orchestration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// A terminal does not lie on the routing grid (grid construction
    /// inserts a track pair through every terminal, so this indicates a
    /// terminal outside the routing region).
    TerminalOffGrid {
        /// The net owning the terminal.
        net: NetId,
        /// The terminal position.
        at: Point,
    },
    /// No path was found even at the maximum search window.
    Unroutable {
        /// The failing net.
        net: NetId,
    },
    /// A net has fewer than two pins.
    DegenerateNet(NetId),
    /// Two different nets own the same terminal grid cell.
    TerminalConflict {
        /// The colliding nets.
        nets: (NetId, NetId),
        /// The shared position.
        at: Point,
    },
    /// Level A channel routing failed.
    LevelA(ocr_channel::ChannelError),
    /// [`crate::partition::PartitionStrategy::AreaBudget`] was given to
    /// the placement-less partitioner; use
    /// [`crate::partition::partition_nets_area_budget`] (the flows do
    /// this automatically).
    PartitionNeedsPlacement,
    /// The run's [`ocr_exec::RunControl`] tripped (budget, deadline or
    /// cancellation) inside a routing step. Internal to the run-control
    /// machinery: `route_all` catches it at the net boundary, rolls the
    /// attempt back and degrades the remaining nets, so callers only
    /// see it if they drive the per-net internals directly.
    Interrupted,
    /// A checkpoint could not be written, or a resume file's contents
    /// are inconsistent with the run being resumed.
    Checkpoint(String),
    /// The configured [`crate::cost::CostWeights`] are unusable (e.g. a
    /// non-finite weight). Rejected at router construction, before any
    /// net is attempted, so a bad config can never silently reorder the
    /// candidate ranking mid-run.
    InvalidWeights(crate::cost::WeightsError),
    /// A Level B-only operation (the ordering
    /// [portfolio](crate::portfolio)) was asked of a channel baseline,
    /// which has no Level B stage.
    NoLevelB(crate::flow::FlowKind),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TerminalOffGrid { net, at } => {
                write!(f, "{net} terminal at {at} is outside the routing grid")
            }
            RouteError::Unroutable { net } => write!(f, "{net} could not be routed"),
            RouteError::DegenerateNet(net) => write!(f, "{net} has fewer than two pins"),
            RouteError::TerminalConflict { nets, at } => {
                write!(f, "{} and {} share terminal cell {at}", nets.0, nets.1)
            }
            RouteError::LevelA(e) => write!(f, "level A routing failed: {e}"),
            RouteError::PartitionNeedsPlacement => f.write_str(
                "AreaBudget partitioning needs a placement: use partition_nets_area_budget",
            ),
            RouteError::Interrupted => f.write_str("routing interrupted by run control"),
            RouteError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            RouteError::InvalidWeights(e) => write!(f, "invalid cost weights: {e}"),
            RouteError::NoLevelB(kind) => write!(f, "the {kind} flow has no Level B stage"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::LevelA(e) => Some(e),
            RouteError::InvalidWeights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ocr_channel::ChannelError> for RouteError {
    fn from(e: ocr_channel::ChannelError) -> Self {
        RouteError::LevelA(e)
    }
}
