#![warn(missing_docs)]

//! Channel routing substrate for the over-cell multi-layer router.
//!
//! The paper's Level A "can be performed using existing channel routing
//! packages"; no such package exists in the Rust ecosystem, so this crate
//! provides the complete stack:
//!
//! * [`ChannelProblem`] — the classical two-row pin model;
//! * [`density`] — local density and the Yoshimura–Kuh zone
//!   representation;
//! * [`Vcg`] — vertical constraint graph over dogleg subnets;
//! * [`route_left_edge`] — constrained left-edge router with doglegs and
//!   jog-based cycle breaking (the workhorse two-layer router), the
//!   one-lane case of the left-edge lane loop;
//! * [`three_layer`] — Chen–Liu-style three-layer (HVH) routing, the
//!   two-lane case of the same loop;
//! * [`route_greedy`] — a Rivest–Fiduccia-style greedy column-sweep
//!   router (second baseline);
//! * [`multilayer`] — four-layer channel routing by HV+HV layer-pair
//!   decomposition, and the paper's "optimistic 50 %" analytic model
//!   used in its Table 3;
//! * [`chip`] — chip-level decomposition: carve channels from a
//!   [`RowPlacement`](ocr_netlist::RowPlacement), route them, expand the
//!   die, and stitch multi-channel nets through edge corridors.
//!
//! # Example
//!
//! ```
//! use ocr_channel::{route_left_edge, ChannelProblem, LeftEdgeOptions};
//!
//! // Two overlapping nets: they need two tracks.
//! let problem = ChannelProblem::from_ids(&[1, 2, 0, 0], &[0, 0, 1, 2]);
//! let plan = route_left_edge(&problem, LeftEdgeOptions::default())?;
//! assert_eq!(plan.tracks_used, 2);
//! # Ok::<(), ocr_channel::ChannelError>(())
//! ```

pub mod chip;
pub mod density;
pub mod error;
pub mod geometry;
pub mod greedy;
pub mod left_edge;
pub mod multilayer;
pub mod problem;
pub mod subnet;
pub mod three_layer;
pub mod vcg;

pub use chip::{route_chip_channels, ChannelRouterKind, ChipChannelOptions, ChipChannelResult};
pub use error::ChannelError;
pub use geometry::{emit_channel, ChannelFrame, ChannelPlan, HWire, VEnd, VWire};
pub use greedy::{route_greedy, GreedyOptions};
pub use left_edge::{
    left_edge_track_count, route_channel_robust, route_left_edge, LeftEdgeOptions,
};
pub use multilayer::{analytic_multilayer_tracks, route_four_layer, FourLayerPlan};
pub use problem::ChannelProblem;
pub use subnet::{build_subnets, Subnet};
pub use three_layer::{emit_three_layer, route_three_layer, ThreeLayerPlan};
pub use vcg::Vcg;
