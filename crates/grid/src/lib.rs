#![warn(missing_docs)]

//! Routing grid for the over-cell (Level B) router and the maze baseline.
//!
//! The paper's Level B solution space is "a grid model representation of
//! the layout. The routing surface is characterized by an array of
//! rectangular cells defined by horizontal and vertical routing tracks
//! that can have different spacing." This crate provides that surface:
//!
//! * [`TrackSet`] — a sorted, possibly non-uniform set of track offsets
//!   in one direction;
//! * [`GridModel`] — the full two-layer (HV) routing surface with
//!   per-intersection occupancy ([`CellState`]), obstacle rasterization
//!   and terminal snapping;
//! * [`build_grid`] — constructs the Level B grid for a
//!   [`Layout`](ocr_netlist::Layout): pitch-derived tracks plus one
//!   horizontal and one vertical track through every Level B terminal
//!   (the paper's "assignment of a pair of horizontal and vertical
//!   tracks to each net terminal").
//!
//! # Example
//!
//! ```
//! use ocr_geom::{Dir, Interval, Point, Rect};
//! use ocr_grid::{CellState, GridModel, TrackSet};
//!
//! let h = TrackSet::from_pitch(Interval::new(0, 40), 10); // y = 0,10,20,30,40
//! let v = TrackSet::from_pitch(Interval::new(0, 40), 10);
//! let mut grid = GridModel::new(Rect::new(0, 0, 40, 40), h, v);
//! assert_eq!(grid.nh(), 5);
//! grid.block_rect(&Rect::new(5, 5, 25, 25), Dir::Horizontal);
//! // Track intersections strictly inside the obstacle are blocked on the
//! // horizontal plane:
//! assert_eq!(grid.state(Dir::Horizontal, 1, 1), CellState::Blocked);
//! // ... but the vertical plane is untouched.
//! assert_eq!(grid.state(Dir::Vertical, 1, 1), CellState::Free);
//! ```

pub mod builder;
pub mod model;
pub mod track;

pub use builder::build_grid;
pub use model::{CellState, GridModel};
pub use track::{TrackId, TrackSet};
