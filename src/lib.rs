#![warn(missing_docs)]

//! # overcell-router
//!
//! A multi-layer macro-cell router utilizing over-cell areas — a
//! from-scratch Rust reproduction of **E. Katsadas and E. Shen,
//! "A Multi-Layer Router Utilizing Over-Cell Areas", 27th ACM/IEEE
//! Design Automation Conference (DAC), 1990.**
//!
//! The methodology assumes four routing layers. Routing happens in two
//! levels:
//!
//! 1. **Level A** — a selected subset of the nets (set A) is routed in
//!    between-cell channels using metal1/metal2 and a classical channel
//!    router. This fixes the layout dimensions and terminal locations.
//! 2. **Level B** — the remaining nets (set B) are routed over the
//!    *entire* layout area (between-cell **and** over-cell) on
//!    metal3/metal4 by a track-based two-dimensional router that finds
//!    all minimum-corner paths with a modified BFS over a *Track
//!    Intersection Graph*, selects among them with a congestion-aware
//!    cost function, avoids arbitrary obstacles, and handles
//!    multi-terminal nets with a Prim-based rectilinear Steiner
//!    heuristic.
//!
//! This umbrella crate re-exports the entire workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`exec`] | `ocr-exec` | scoped thread pool (one shared claim counter) behind every parallel stage |
//! | [`obs`] | `ocr-obs` | telemetry: spans, counters, stats tables, Chrome traces |
//! | [`fault`] | `ocr-fault` | deterministic fault injection, chaos plans, input corruption |
//! | [`geom`] | `ocr-geom` | points, rectangles, intervals, layers |
//! | [`netlist`] | `ocr-netlist` | layout, nets, design rules, metrics, validation |
//! | [`grid`] | `ocr-grid` | routing grid with non-uniform tracks and occupancy |
//! | [`channel`] | `ocr-channel` | channel routers (left-edge + dogleg, greedy, 4-layer) and chip-level channel decomposition |
//! | [`maze`] | `ocr-maze` | Lee maze-router baseline |
//! | [`core`] | `ocr-core` | the paper's Level B router and complete flows |
//! | [`gen`] | `ocr-gen` | synthetic benchmark layouts (ami33/Xerox/ex3 equivalents) |
//! | [`io`] | `ocr-io` | `.ocr` text-format serialization + routed-geometry export |
//! | [`render`] | `ocr-render` | SVG output |
//! | [`verify`] | `ocr-verify` | independent DRC + connectivity verification oracle |
//!
//! # Quick start
//!
//! Route a generated macro-cell chip with the paper's proposed flow and
//! compare it against the two-layer channel baseline:
//!
//! ```
//! use overcell_router::core::{Flow, FlowKind};
//! use overcell_router::gen::random::small_random;
//!
//! let chip = small_random(6, 2, 3, 10, 42);
//! let over = Flow::default().run(&chip.layout, &chip.placement)?;
//! let base = FlowKind::Channel2.build().run(&chip.layout, &chip.placement)?;
//! assert!(over.metrics.layout_area <= base.metrics.layout_area);
//! # Ok::<(), overcell_router::core::RouteError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

pub use ocr_channel as channel;
pub use ocr_core as core;
pub use ocr_exec as exec;
pub use ocr_fault as fault;
pub use ocr_gen as gen;
pub use ocr_geom as geom;
pub use ocr_grid as grid;
pub use ocr_io as io;
pub use ocr_maze as maze;
pub use ocr_netlist as netlist;
pub use ocr_obs as obs;
pub use ocr_render as render;
pub use ocr_serve as serve;
pub use ocr_verify as verify;
