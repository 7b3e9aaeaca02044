#![warn(missing_docs)]

//! The over-cell multi-layer router of Katsadas and Shen (DAC 1990):
//! *"A Multi-Layer Router Utilizing Over-Cell Areas"*.
//!
//! The methodology routes a macro-cell layout in two levels:
//!
//! * **Level A** — a selected subset of nets (set A) is routed in
//!   between-cell channels on metal1/metal2 by an ordinary channel
//!   router (supplied by [`ocr_channel`]). Afterwards "the final
//!   dimensions of the layout and the location of the net terminals are
//!   known".
//! * **Level B** — the remaining nets (set B) are routed over the
//!   *entire* layout area — between-cell **and** over-cell — on
//!   metal3/metal4 by the paper's new two-dimensional router:
//!   a grid of (possibly non-uniformly spaced) tracks, a bipartite
//!   *Track Intersection Graph* read directly off that grid ([`tig`]),
//!   a *modified breadth-first search* finding minimum-corner paths
//!   ([`mbfs`]), *Path Selection Trees* with a weighted cost function
//!   choosing among them ([`pst`], [`cost`]), longest-distance-first
//!   net ordering ([`order`]), and a Prim-based rectilinear Steiner
//!   heuristic for multi-terminal nets ([`steiner`]).
//!
//! The [`flow`] module assembles complete flows: the proposed over-cell
//! flow and the channel-only baselines the paper compares against in its
//! Tables 2 and 3.
//!
//! # Quick start
//!
//! ```
//! use ocr_geom::{Layer, Point, Rect};
//! use ocr_netlist::{Layout, NetClass};
//! use ocr_core::level_b::LevelBRouter;
//! use ocr_core::config::LevelBConfig;
//!
//! // A tiny layout: one net to route over-cell.
//! let mut layout = Layout::new(Rect::new(0, 0, 200, 200));
//! let n = layout.add_net("n0", NetClass::Signal);
//! layout.add_pin(n, None, Point::new(20, 30), Layer::Metal2);
//! layout.add_pin(n, None, Point::new(180, 170), Layer::Metal2);
//!
//! let mut router = LevelBRouter::new(&layout, &[n], LevelBConfig::default())?;
//! let result = router.route_all()?;
//! assert!(result.design.route(n).is_some());
//! # Ok::<(), ocr_core::error::RouteError>(())
//! ```

pub mod ckpt;
pub mod config;
pub mod cost;
pub mod degrade;
pub mod error;
pub mod flow;
pub mod level_b;
pub mod mbfs;
pub mod order;
pub mod partition;
pub mod portfolio;
pub mod pst;
pub mod stats;
pub mod steiner;
#[cfg(test)]
mod testkit;
pub mod tig;

pub use ckpt::{resume_from_doc, CheckpointSpec, LevelBResume, RunSession};
pub use config::LevelBConfig;
pub use cost::{CostWeights, WeightsError};
pub use degrade::{Degradation, DegradeReason, NetDegradation};
pub use error::RouteError;
pub use flow::{
    run_analytic_four_layer_estimate, ChannelFlow, Flow, FlowKind, FlowOptions, FlowResult,
    OverCellFlow,
};
pub use level_b::{LevelBResult, LevelBRouter};
pub use order::{ordering_from_name, NetOrdering};
pub use partition::{partition_nets, partition_nets_area_budget, PartitionStrategy};
pub use portfolio::{portfolio_roster, PortfolioReport, StrategyOutcome};
pub use stats::RoutingStats;
