#![warn(missing_docs)]

//! Macro-cell layout model, netlist, design rules and routed-geometry
//! metrics for the over-cell multi-layer router.
//!
//! This crate is the data substrate of the reproduction: it models what
//! the paper calls the *layout* — macro-cells with terminals on their
//! boundaries, a set of nets over those terminals, per-layer design rules
//! (wire width, spacing, via size — the paper's observation that upper
//! metal layers are wider and their vias larger), user- or rule-declared
//! over-cell obstacles, and the geometry a router produces
//! ([`NetRoute`]s of wire segments and vias).
//!
//! It also provides the three metrics every table in the paper reports:
//! **layout area**, **total wire length** and **via count**
//! (see [`metrics`]). Whether a routed design is legal is judged by the
//! independent `ocr-verify` oracle, not here.
//!
//! # Example
//!
//! ```
//! use ocr_geom::{Layer, Point, Rect};
//! use ocr_netlist::{Layout, NetClass};
//!
//! let mut layout = Layout::new(Rect::new(0, 0, 400, 300));
//! let cell = layout.add_cell("alu", Rect::new(40, 40, 160, 120));
//! let net = layout.add_net("clk", NetClass::Clock);
//! layout.add_pin(net, Some(cell), Point::new(40, 80), Layer::Metal2);
//! layout.add_pin(net, None, Point::new(380, 290), Layer::Metal2);
//! assert_eq!(layout.net(net).pins.len(), 2);
//! ```

pub mod cell;
pub mod coupling;
pub mod layout;
pub mod metrics;
pub mod net;
pub mod pin;
pub mod placement;
pub mod route;
pub mod rules;

pub use cell::{Cell, CellId};
pub use coupling::{coupling_report, CouplingReport};
pub use layout::{Layout, Obstacle};
pub use metrics::{ChipMetrics, MetricReductions, RouteMetrics};
pub use net::{Net, NetClass, NetId};
pub use pin::{Pin, PinId};
pub use placement::{Row, RowPlacement};
pub use route::{NetRoute, RouteSeg, RoutedDesign, Via};
pub use rules::{DesignRules, LayerRules};
