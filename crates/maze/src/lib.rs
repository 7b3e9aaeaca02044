#![warn(missing_docs)]

//! Lee-style maze routing baseline.
//!
//! Section 3 of the paper claims the Track Intersection Graph router
//! "results in faster completion of the interconnections on the average
//! when compared to maze type algorithms". This crate supplies the
//! comparator: a classic Lee router (Lee, "An algorithm for path
//! connections and its applications", 1961) expanding a wave over the
//! same two-plane grid model the Level B router uses, plus an A*
//! variant. The rip-up probe [`find_soft_path`] runs the same wave with
//! other nets' wiring passable at a penalty.
//!
//! The unit of comparison is **expanded nodes**: a maze wave touches
//! `O(area)` grid cells per connection, while the TIG search touches
//! `O(tracks)` vertices.
//!
//! A wave needs a distance and a way back per (cell, plane) node it
//! reaches. The way back is a one-byte move code, as in Akers' coded
//! Lee wave (1967), not a node address: a node's predecessor is always
//! one of its two neighbours along its plane or the same cell on the
//! other plane. [`MazeScratch`] keeps those buffers between waves, in
//! 16×16-cell tiles: a wave takes a tile from a pool on its first write
//! there, so it holds only the tiles it reaches, and when it ends it
//! empties just the tile table's entries for them. The `_with` variants
//! ([`route_maze_with`], [`find_soft_path_with`]) reuse one scratch; the
//! plain calls use a fresh scratch each time.
//!
//! # Example
//!
//! ```
//! use ocr_geom::{Interval, Point, Rect};
//! use ocr_grid::{GridModel, TrackSet};
//! use ocr_maze::{route_maze, MazeOptions};
//!
//! let mut grid = GridModel::new(
//!     Rect::new(0, 0, 100, 100),
//!     TrackSet::from_pitch(Interval::new(0, 100), 10),
//!     TrackSet::from_pitch(Interval::new(0, 100), 10),
//! );
//! let path = route_maze(&mut grid, 1, Point::new(0, 0), Point::new(100, 100),
//!                       MazeOptions::default())?;
//! assert_eq!(path.route.wire_length(), 200);
//! # Ok::<(), ocr_maze::MazeError>(())
//! ```

pub mod mikami;

pub use mikami::route_mikami;

use ocr_geom::{Coord, Dir, Point};
use ocr_grid::{CellState, GridModel};
use ocr_netlist::{NetRoute, RouteSeg, Via};
use std::collections::BinaryHeap;
use std::fmt;

/// Options for the maze router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MazeOptions {
    /// Extra cost charged for a plane change (a via).
    pub via_cost: Coord,
    /// Use the A* lower-bound (remaining Manhattan distance) to focus
    /// the wave. `false` reproduces the undirected Lee expansion.
    pub astar: bool,
}

impl Default for MazeOptions {
    fn default() -> Self {
        MazeOptions {
            via_cost: 5,
            astar: false,
        }
    }
}

/// Errors from the maze router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MazeError {
    /// A terminal does not lie on the grid.
    OffGrid(Point),
    /// A terminal's grid cell is blocked on both planes.
    TerminalBlocked(Point),
    /// The wave exhausted the grid without reaching the target.
    NoPath,
}

impl fmt::Display for MazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MazeError::OffGrid(p) => write!(f, "terminal {p} is off the routing grid"),
            MazeError::TerminalBlocked(p) => write!(f, "terminal {p} is blocked on both planes"),
            MazeError::NoPath => write!(f, "no path exists between the terminals"),
        }
    }
}

impl std::error::Error for MazeError {}

/// A found maze path.
#[derive(Clone, Debug)]
pub struct MazePath {
    /// The physical route (wires on M3/M4, corner vias).
    pub route: NetRoute,
    /// Total cost (wire length plus via penalties).
    pub cost: Coord,
    /// Number of search nodes expanded — the performance measure the
    /// paper's comparison is about.
    pub expanded: usize,
    /// Grid nodes of the path as `(i, j, plane)`.
    pub nodes: Vec<(usize, usize, Dir)>,
}

/// A heap entry: the `(priority, cost)` pair folded into one key that
/// orders exactly as the pair does, and the node it reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueueEntry {
    key: i128,
    /// `(i, j, plane)` packed as `i << 32 | j << 1 | plane`.
    node: u64,
}

impl QueueEntry {
    fn new(priority: Coord, cost: Coord, (i, j, p): (usize, usize, usize)) -> Self {
        // Flipping the sign bit maps `i64` order onto `u64` order, so the
        // low half compares as `cost` does beneath the high half's
        // `priority`.
        QueueEntry {
            key: (priority as i128) << 64 | ((cost as u64) ^ 1 << 63) as i128,
            node: (i as u64) << 32 | (j as u64) << 1 | p as u64,
        }
    }

    fn cost(self) -> Coord {
        (self.key as u64 ^ 1 << 63) as Coord
    }

    fn node(self) -> (usize, usize, usize) {
        let n = self.node;
        (
            (n >> 32) as usize,
            (n as u32 >> 1) as usize,
            (n & 1) as usize,
        )
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The move that reached a wave node from its predecessor, which names
/// the predecessor in one byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Move {
    /// No predecessor: the node is a source, or the wave has not set it.
    Unset,
    /// From the cell at `i - 1`, along the horizontal plane.
    East,
    /// From the cell at `i + 1`, along the horizontal plane.
    West,
    /// From the cell at `j - 1`, along the vertical plane.
    North,
    /// From the cell at `j + 1`, along the vertical plane.
    South,
    /// From the same cell on the other plane.
    Via,
}

/// log2 of a tile's side in grid cells.
const TILE_SHIFT: usize = 4;
/// A tile's side in grid cells.
const TILE_SIDE: usize = 1 << TILE_SHIFT;
/// Wave nodes in one tile: each cell on both planes.
const TILE_NODES: usize = TILE_SIDE * TILE_SIDE * 2;
/// Tile-table entry of a tile the running wave has not written.
const NO_TILE: u32 = u32::MAX;

/// A distance and a move code for every node of a 16×16-cell tile.
#[derive(Clone, Debug)]
struct Tile {
    dist: [Coord; TILE_NODES],
    moves: [Move; TILE_NODES],
}

impl Tile {
    const UNSET: Tile = Tile {
        dist: [Coord::MAX; TILE_NODES],
        moves: [Move::Unset; TILE_NODES],
    };
}

/// The reusable buffers of the maze wave: a distance and a move code
/// per (cell, plane) node the wave reaches, and the wave's heap.
///
/// The grid splits into 16×16-cell tiles, and a table maps each tile to
/// a slot of a pool of tiles or to none. A node of a tile with no slot
/// reads as unreached (`Coord::MAX`, no move); a wave's first write to
/// such a tile takes the next pool tile and refills it. So a wave holds
/// only the tiles it reaches, not the whole die. When it ends, on every
/// exit, it clears the table entries of the tiles it took and keeps the
/// pool for the next wave.
#[derive(Clone, Debug, Default)]
pub struct MazeScratch {
    /// Per tile of the grid, row by row, its pool slot or [`NO_TILE`].
    table: Vec<u32>,
    /// Tiles per table row.
    tiles_across: usize,
    pool: Vec<Box<Tile>>,
    /// The table index of each pool slot the running wave holds.
    held: Vec<u32>,
    heap: BinaryHeap<QueueEntry>,
}

impl MazeScratch {
    /// Empty scratch; the first wave sizes it.
    pub fn new() -> Self {
        MazeScratch::default()
    }

    /// Drops the buffers: the tile pool, the tile table and the heap.
    pub fn release(&mut self) {
        *self = MazeScratch::default();
    }

    /// Bytes held by the per-node buffers: the tile pool (4,608 bytes a
    /// tile) and the tile table (4 bytes a tile of the grid); 0 before
    /// the first wave and after [`MazeScratch::release`].
    pub fn node_bytes(&self) -> usize {
        self.pool.len() * std::mem::size_of::<Tile>()
            + self.table.len() * std::mem::size_of::<u32>()
    }

    /// Sizes the tile table for a grid of `nv` × `nh` cells.
    fn prepare(&mut self, nv: usize, nh: usize) {
        self.tiles_across = nv.div_ceil(TILE_SIDE);
        // Between waves every entry is `NO_TILE`, so only the length moves.
        self.table
            .resize(self.tiles_across * nh.div_ceil(TILE_SIDE), NO_TILE);
    }

    /// Empties the table entries of the tiles the last wave took.
    fn reset(&mut self) {
        for &t in &self.held {
            self.table[t as usize] = NO_TILE;
        }
        self.held.clear();
        self.heap.clear();
    }

    /// The table index of node `(i, j, p)`'s tile and the node's offset
    /// in it.
    #[inline]
    fn locate(&self, i: usize, j: usize, p: usize) -> (usize, usize) {
        let tile = (j >> TILE_SHIFT) * self.tiles_across + (i >> TILE_SHIFT);
        let cell = (j & (TILE_SIDE - 1)) << TILE_SHIFT | (i & (TILE_SIDE - 1));
        (tile, cell << 1 | p)
    }

    /// The tile of node `(i, j, p)` and its offset there, or `None` while
    /// the wave has not written the tile.
    #[inline]
    fn get(&self, i: usize, j: usize, p: usize) -> Option<(&Tile, usize)> {
        let (t, o) = self.locate(i, j, p);
        match self.table[t] {
            NO_TILE => None,
            s => Some((&self.pool[s as usize], o)),
        }
    }

    /// Node `(i, j, p)`'s distance; `Coord::MAX` if unreached.
    #[inline]
    fn dist(&self, i: usize, j: usize, p: usize) -> Coord {
        self.get(i, j, p)
            .map_or(Coord::MAX, |(tile, o)| tile.dist[o])
    }

    /// The move that reached node `(i, j, p)`; unset if unreached.
    #[inline]
    fn how(&self, i: usize, j: usize, p: usize) -> Move {
        self.get(i, j, p)
            .map_or(Move::Unset, |(tile, o)| tile.moves[o])
    }

    /// Lowers node `(i, j, p)`'s distance to `d`, reached by `how`, if
    /// `d` is below it; returns whether it did.
    #[inline]
    fn lower(&mut self, i: usize, j: usize, p: usize, d: Coord, how: Move) -> bool {
        let (t, o) = self.locate(i, j, p);
        let slot = match self.table[t] {
            NO_TILE => self.take_tile(t),
            s => s as usize,
        };
        let tile = &mut self.pool[slot];
        if d < tile.dist[o] {
            tile.dist[o] = d;
            tile.moves[o] = how;
            true
        } else {
            false
        }
    }

    /// Gives table entry `t` the next pool slot, refilled as unreached,
    /// growing the pool if the wave holds all of it.
    #[cold]
    fn take_tile(&mut self, t: usize) -> usize {
        let slot = self.held.len();
        match self.pool.get_mut(slot) {
            Some(tile) => **tile = Tile::UNSET,
            None => self.pool.push(Box::new(Tile::UNSET)),
        }
        self.table[t] = slot as u32;
        self.held.push(t as u32);
        slot
    }
}

/// Routes one two-terminal connection with a Lee/Dijkstra wave over the
/// grid's two planes, marking the found path as used by `net`.
///
/// Horizontal moves run on the horizontal plane (metal3), vertical moves
/// on the vertical plane (metal4); plane changes cost
/// [`MazeOptions::via_cost`]. Cells already used by `net` itself are
/// passable (reuse of own wiring).
///
/// # Errors
///
/// See [`MazeError`].
pub fn route_maze(
    grid: &mut GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
) -> Result<MazePath, MazeError> {
    route_maze_with(grid, net, from, to, opts, &mut MazeScratch::new())
}

/// [`route_maze`] on reusable wave buffers.
///
/// # Errors
///
/// See [`MazeError`].
pub fn route_maze_with(
    grid: &mut GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
    scratch: &mut MazeScratch,
) -> Result<MazePath, MazeError> {
    let src = grid.snap(from).ok_or(MazeError::OffGrid(from))?;
    let dst = grid.snap(to).ok_or(MazeError::OffGrid(to))?;
    let g: &GridModel = grid;
    let to = g.point(dst.0, dst.1);
    let h = |i: usize, j: usize| {
        if opts.astar {
            (g.v_tracks().offset(i) - to.x).abs() + (g.h_tracks().offset(j) - to.y).abs()
        } else {
            0
        }
    };
    let entry =
        |i: usize, j: usize, p: usize| g.state(plane_dir(p), i, j).passable_for(net).then_some(0);
    let found = wave(g, src, dst, opts.via_cost, h, entry, scratch)?;
    let route = path_to_route(grid, &found.nodes);
    occupy_path(grid, net, &found.nodes);
    Ok(MazePath {
        route,
        cost: found.cost,
        expanded: found.expanded,
        nodes: found.nodes,
    })
}

/// A soft path: the cheapest route when other nets' wiring is passable
/// at a penalty, plus the nets that wiring belongs to.
///
/// Used by rip-up-and-reroute: when a net is hard-blocked, the soft
/// path names the cheapest set of victim nets to rip.
#[derive(Clone, Debug)]
pub struct SoftPath {
    /// Grid nodes of the path as `(i, j, plane)`.
    pub nodes: Vec<(usize, usize, Dir)>,
    /// Total cost including blocker penalties.
    pub cost: Coord,
    /// Distinct ids of other nets whose wiring the path crosses, in
    /// first-encounter order.
    pub blockers: Vec<u32>,
}

/// Finds the cheapest path from `from` to `to` treating cells used by
/// *other* nets as passable at `block_penalty` per cell, plane changes
/// costing `via_cost`. Only cells for which `rippable(i, j)` returns
/// `true` may be crossed at a penalty; other nets' cells failing the
/// filter, and obstacles, stay impassable. Does **not** modify the grid.
///
/// This is the [`route_maze`] wave with a penalised entry cost and no A*
/// bound. Rip-up-and-reroute uses the filter to exclude cells that
/// ripping cannot free (terminal reservations), so every named blocker
/// is genuinely removable; pass `|_, _| true` to make all foreign
/// wiring rippable.
///
/// # Errors
///
/// [`MazeError::OffGrid`] for off-grid terminals,
/// [`MazeError::TerminalBlocked`] for a terminal impassable on both
/// planes, and [`MazeError::NoPath`] when even ripping every rippable
/// net would not connect the terminals.
pub fn find_soft_path(
    grid: &GridModel,
    net: u32,
    from: Point,
    to: Point,
    via_cost: Coord,
    block_penalty: Coord,
    rippable: impl Fn(usize, usize) -> bool,
) -> Result<SoftPath, MazeError> {
    let mut scratch = MazeScratch::new();
    find_soft_path_with(
        grid,
        net,
        from,
        to,
        via_cost,
        block_penalty,
        rippable,
        &mut scratch,
    )
}

/// [`find_soft_path`] on reusable wave buffers.
///
/// # Errors
///
/// See [`find_soft_path`].
#[allow(clippy::too_many_arguments)]
pub fn find_soft_path_with(
    grid: &GridModel,
    net: u32,
    from: Point,
    to: Point,
    via_cost: Coord,
    block_penalty: Coord,
    rippable: impl Fn(usize, usize) -> bool,
    scratch: &mut MazeScratch,
) -> Result<SoftPath, MazeError> {
    let src = grid.snap(from).ok_or(MazeError::OffGrid(from))?;
    let dst = grid.snap(to).ok_or(MazeError::OffGrid(to))?;
    let entry = |i: usize, j: usize, p: usize| {
        let state = grid.state(plane_dir(p), i, j);
        if state.passable_for(net) {
            Some(0)
        } else {
            (state.is_used() && rippable(i, j)).then_some(block_penalty)
        }
    };
    let found = wave(grid, src, dst, via_cost, |_, _| 0, entry, scratch)?;
    let mut blockers: Vec<u32> = Vec::new();
    for &(i, j, d) in &found.nodes {
        if let CellState::Used(n) = grid.state(d, i, j) {
            if n != net && !blockers.contains(&n) {
                blockers.push(n);
            }
        }
    }
    Ok(SoftPath {
        nodes: found.nodes,
        cost: found.cost,
        blockers,
    })
}

/// The plane index `p` of a wave node: 0 horizontal, 1 vertical.
fn plane_dir(p: usize) -> Dir {
    if p == 0 {
        Dir::Horizontal
    } else {
        Dir::Vertical
    }
}

/// The outcome of one [`wave`].
struct Found {
    nodes: Vec<(usize, usize, Dir)>,
    cost: Coord,
    expanded: usize,
}

/// The one Dijkstra/A* wave behind [`route_maze`] and [`find_soft_path`],
/// from grid node `src` to `dst` over both planes.
///
/// `entry(i, j, plane)` is the extra cost of entering a node, or `None`
/// if it is impassable; `h(i, j)` is an A* lower bound on the remaining
/// cost (0 for an undirected Lee wave). Moves follow the plane's
/// direction at their physical track spacing; a plane change costs
/// `via_cost`. Ties in the heap break on `(priority, cost)`.
///
/// Runs on `scratch`'s buffers and leaves them reset, whatever the exit.
fn wave(
    grid: &GridModel,
    src: (usize, usize),
    dst: (usize, usize),
    via_cost: Coord,
    h: impl Fn(usize, usize) -> Coord,
    entry: impl Fn(usize, usize, usize) -> Option<Coord>,
    scratch: &mut MazeScratch,
) -> Result<Found, MazeError> {
    scratch.prepare(grid.nv(), grid.nh());
    let found = wave_in(grid, src, dst, via_cost, h, entry, scratch);
    scratch.reset();
    found
}

/// The body of [`wave`], on a prepared scratch it does not reset.
fn wave_in(
    grid: &GridModel,
    src: (usize, usize),
    dst: (usize, usize),
    via_cost: Coord,
    h: impl Fn(usize, usize) -> Coord,
    entry: impl Fn(usize, usize, usize) -> Option<Coord>,
    scratch: &mut MazeScratch,
) -> Result<Found, MazeError> {
    let (nv, nh) = (grid.nv(), grid.nh());
    for p in 0..2 {
        if let Some(extra) = entry(src.0, src.1, p) {
            scratch.lower(src.0, src.1, p, extra, Move::Unset);
            let priority = extra + h(src.0, src.1);
            scratch
                .heap
                .push(QueueEntry::new(priority, extra, (src.0, src.1, p)));
        }
    }
    if scratch.heap.is_empty() {
        return Err(MazeError::TerminalBlocked(grid.point(src.0, src.1)));
    }
    if (0..2).all(|p| entry(dst.0, dst.1, p).is_none()) {
        return Err(MazeError::TerminalBlocked(grid.point(dst.0, dst.1)));
    }

    let mut expanded = 0usize;
    let mut goal: Option<(usize, usize, usize)> = None;
    while let Some(top) = scratch.heap.pop() {
        let (cost, node) = (top.cost(), top.node());
        let (i, j, p) = node;
        if cost > scratch.dist(i, j, p) {
            continue;
        }
        expanded += 1;
        if (i, j) == dst {
            goal = Some(node);
            break;
        }
        let mut relax = |ni: usize, nj: usize, np: usize, step: Coord, how: Move| {
            let Some(extra) = entry(ni, nj, np) else {
                return;
            };
            let nd = cost + step + extra;
            if scratch.lower(ni, nj, np, nd, how) {
                let priority = nd + h(ni, nj);
                scratch
                    .heap
                    .push(QueueEntry::new(priority, nd, (ni, nj, np)));
            }
        };
        if p == 0 {
            // Horizontal plane: move along x.
            let x = |i: usize| grid.v_tracks().offset(i);
            if i > 0 {
                relax(i - 1, j, 0, x(i) - x(i - 1), Move::West);
            }
            if i + 1 < nv {
                relax(i + 1, j, 0, x(i + 1) - x(i), Move::East);
            }
        } else {
            // Vertical plane: move along y.
            let y = |j: usize| grid.h_tracks().offset(j);
            if j > 0 {
                relax(i, j - 1, 1, y(j) - y(j - 1), Move::South);
            }
            if j + 1 < nh {
                relax(i, j + 1, 1, y(j + 1) - y(j), Move::North);
            }
        }
        // Plane change (via).
        relax(i, j, 1 - p, via_cost, Move::Via);
    }

    let goal = goal.ok_or(MazeError::NoPath)?;
    let mut nodes = Vec::new();
    let (mut i, mut j, mut p) = goal;
    loop {
        nodes.push((i, j, plane_dir(p)));
        match scratch.how(i, j, p) {
            Move::Unset => break,
            Move::East => i -= 1,
            Move::West => i += 1,
            Move::North => j -= 1,
            Move::South => j += 1,
            Move::Via => p = 1 - p,
        }
    }
    nodes.reverse();
    Ok(Found {
        nodes,
        cost: scratch.dist(goal.0, goal.1, goal.2),
        expanded,
    })
}

/// Converts a node path into wire segments and corner vias.
pub(crate) fn path_to_route(grid: &GridModel, nodes: &[(usize, usize, Dir)]) -> NetRoute {
    let mut route = NetRoute::new();
    if nodes.is_empty() {
        return route;
    }
    let layer_of = |d: Dir| match d {
        Dir::Horizontal => ocr_geom::Layer::Metal3,
        Dir::Vertical => ocr_geom::Layer::Metal4,
    };
    let mut run_start = 0usize;
    for k in 1..=nodes.len() {
        let end_run = k == nodes.len() || nodes[k].2 != nodes[run_start].2;
        if !end_run {
            continue;
        }
        let (i0, j0, d) = nodes[run_start];
        let (i1, j1, _) = nodes[k - 1];
        let a = grid.point(i0, j0);
        let b = grid.point(i1, j1);
        if a != b {
            route.segs.push(RouteSeg::new(a, b, layer_of(d)));
        }
        if k < nodes.len() {
            // Plane change: via at the junction point.
            let at = grid.point(nodes[k].0, nodes[k].1);
            route.vias.push(Via::new(
                at,
                ocr_geom::Layer::Metal3,
                ocr_geom::Layer::Metal4,
            ));
            run_start = k;
        }
    }
    route
}

/// Marks the path's cells as used by `net` on their respective planes.
pub(crate) fn occupy_path(grid: &mut GridModel, net: u32, nodes: &[(usize, usize, Dir)]) {
    for &(i, j, d) in nodes {
        grid.set_state(d, i, j, CellState::Used(net));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::TrackSet;

    fn grid(n: Coord, pitch: Coord) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    #[test]
    fn straight_line_costs_its_length() {
        let mut g = grid(100, 10);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 100);
        assert_eq!(p.route.vias.len(), 0);
    }

    #[test]
    fn l_path_has_one_via() {
        let mut g = grid(100, 10);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 0),
            Point::new(100, 100),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 200);
        assert_eq!(p.route.vias.len(), 1);
    }

    #[test]
    fn detours_around_obstacle() {
        let mut g = grid(100, 10);
        // Wall across the middle on both planes, with a hole at the top.
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 85), dir);
        }
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert!(p.route.wire_length() > 100, "must detour");
        // Path must stay clear of blocked cells — re-route of same net
        // over its own path is fine, so just check wire length grew.
    }

    #[test]
    fn no_path_is_reported() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 105), dir);
        }
        let err = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, MazeError::NoPath);
    }

    #[test]
    fn astar_expands_no_more_than_dijkstra() {
        let mut g1 = grid(200, 10);
        let mut g2 = grid(200, 10);
        let lee = route_maze(
            &mut g1,
            1,
            Point::new(0, 0),
            Point::new(200, 200),
            MazeOptions::default(),
        )
        .expect("routes");
        let astar = route_maze(
            &mut g2,
            1,
            Point::new(0, 0),
            Point::new(200, 200),
            MazeOptions {
                astar: true,
                ..MazeOptions::default()
            },
        )
        .expect("routes");
        assert_eq!(lee.route.wire_length(), astar.route.wire_length());
        assert!(astar.expanded <= lee.expanded);
    }

    #[test]
    fn second_net_avoids_first() {
        let mut g = grid(100, 10);
        let first = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("net 1");
        assert_eq!(first.route.wire_length(), 100);
        // Net 2 wants the same horizontal track: it must switch tracks.
        let second = route_maze(
            &mut g,
            2,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        );
        match second {
            Ok(p) => assert!(p.route.wire_length() > 100 || !p.route.vias.is_empty()),
            Err(e) => panic!("net 2 should still route: {e}"),
        }
    }

    #[test]
    fn own_wiring_is_reusable() {
        let mut g = grid(100, 10);
        route_maze(
            &mut g,
            7,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("first pass");
        // Same net again across its own wire: allowed.
        let again = route_maze(
            &mut g,
            7,
            Point::new(0, 50),
            Point::new(50, 50),
            MazeOptions::default(),
        )
        .expect("reuse");
        assert_eq!(again.route.wire_length(), 50);
    }

    #[test]
    fn soft_path_names_the_blockers() {
        let mut g = grid(100, 10);
        // Net 5 owns three full columns on both planes — a wall of
        // wiring no other net can cross without paying its penalty.
        for i in 4..=6 {
            for j in 0..=10 {
                g.set_state(Dir::Horizontal, i, j, ocr_grid::CellState::Used(5));
                g.set_state(Dir::Vertical, i, j, ocr_grid::CellState::Used(5));
            }
        }
        // Hard search fails…
        let hard = route_maze(
            &mut g.clone(),
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        );
        assert_eq!(hard.unwrap_err(), MazeError::NoPath);
        // …but the soft search crosses net 5 and names it.
        let soft = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default().via_cost,
            10_000,
            |_, _| true,
        )
        .expect("soft path");
        assert_eq!(soft.blockers, vec![5]);
        assert!(soft.cost >= 10_000);
    }

    #[test]
    fn soft_path_prefers_free_routes_over_ripping() {
        let mut g = grid(100, 10);
        // Net 5 occupies the straight row, but a free detour exists.
        g.occupy_run(Dir::Horizontal, 5, 0, 10, 5);
        let soft = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default().via_cost,
            10_000,
            |_, _| true,
        )
        .expect("soft path");
        assert!(soft.blockers.is_empty(), "should detour instead of ripping");
    }

    #[test]
    fn soft_path_still_fails_through_obstacles() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 105), dir);
        }
        let err = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default().via_cost,
            10_000,
            |_, _| true,
        )
        .unwrap_err();
        assert_eq!(err, MazeError::NoPath);
    }

    #[test]
    fn non_uniform_tracks_give_physical_lengths() {
        // Tracks at 0, 10, 50, 60: a run across the wide gap costs its
        // physical distance, not a unit step.
        let ts = TrackSet::from_offsets(vec![0, 10, 50, 60]);
        let mut g = GridModel::new(Rect::new(0, 0, 60, 60), ts.clone(), ts);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 0),
            Point::new(60, 0),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 60);
        assert_eq!(p.cost, 60);
    }

    /// Asserts the between-waves invariant of a scratch: no tile-table
    /// entry set, no pool slot held, an empty heap.
    fn assert_reset(scratch: &MazeScratch) {
        assert!(scratch.table.iter().all(|&t| t == NO_TILE));
        assert!(scratch.held.is_empty() && scratch.heap.is_empty());
    }

    #[test]
    fn shared_scratch_matches_fresh_buffers_across_grids_and_exits() {
        // Three grids of different sizes. The wall grid has no path
        // across; its blocked column also seals some terminals, so some
        // waves seed the source and then stop at a blocked target.
        let mut wall = grid(60, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            wall.block_rect(&Rect::new(25, -5, 35, 65), dir);
        }
        let mut foreign = grid(200, 10);
        foreign.occupy_run(Dir::Horizontal, 10, 0, 20, 5);
        foreign.occupy_run(Dir::Vertical, 7, 3, 18, 6);
        let grids = [grid(100, 10), foreign, wall];
        let mut scratch = MazeScratch::new();
        let mut rng = Lcg(0x5eed);
        let mut pick = |n: usize| rng.below(n);
        let (mut no_path, mut blocked) = (0, 0);
        for call in 0..120 {
            let g = &grids[call % grids.len()];
            let n = g.nv();
            let from = g.point(pick(n), pick(n));
            let to = g.point(pick(n), pick(n));
            if call % 2 == 0 {
                let opts = MazeOptions {
                    via_cost: 5,
                    astar: call % 4 == 0,
                };
                let shared = route_maze_with(&mut g.clone(), 1, from, to, opts, &mut scratch);
                let fresh = route_maze(&mut g.clone(), 1, from, to, opts);
                match (&shared, &fresh) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            (&a.nodes, a.cost, a.expanded),
                            (&b.nodes, b.cost, b.expanded),
                            "call {call}"
                        );
                    }
                    (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "call {call}"),
                }
                no_path += usize::from(matches!(shared, Err(MazeError::NoPath)));
                blocked += usize::from(matches!(shared, Err(MazeError::TerminalBlocked(_))));
            } else {
                let shared =
                    find_soft_path_with(g, 1, from, to, 5, 1_000, |i, _| i % 3 != 0, &mut scratch);
                let fresh = find_soft_path(g, 1, from, to, 5, 1_000, |i, _| i % 3 != 0);
                match (&shared, &fresh) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        (&a.nodes, a.cost, &a.blockers),
                        (&b.nodes, b.cost, &b.blockers),
                        "call {call}"
                    ),
                    (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "call {call}"),
                }
                no_path += usize::from(matches!(shared, Err(MazeError::NoPath)));
                blocked += usize::from(matches!(shared, Err(MazeError::TerminalBlocked(_))));
            }
            assert_reset(&scratch);
        }
        assert!(
            no_path > 0 && blocked > 0,
            "{no_path} NoPath, {blocked} TerminalBlocked"
        );
        // The last wave ran on the 7×7 wall grid, one tile; the pool kept
        // the 21×21 grid's largest wave, at most its four tiles.
        let pooled = scratch.pool.len();
        assert!((1..=4).contains(&pooled), "{pooled} pool tiles");
        assert_eq!(scratch.node_bytes(), pooled * 4_608 + 4);
        scratch.release();
        assert!(scratch.pool.is_empty() && scratch.table.is_empty());
        assert_eq!(scratch.node_bytes(), 0);
    }

    /// The dense wave the tiled scratch replaced, kept as its reference:
    /// a distance and a move code for every node of the grid, reset node
    /// by node after each wave, a heap of `(priority, cost, node)`
    /// entries, and the A* bound by [`GridModel::distance`].
    #[derive(Default)]
    struct DenseScratch {
        dist: Vec<Coord>,
        moves: Vec<Move>,
        touched: Vec<u32>,
        heap: BinaryHeap<DenseEntry>,
    }

    #[derive(PartialEq, Eq)]
    struct DenseEntry {
        priority: Coord,
        cost: Coord,
        node: (usize, usize, usize),
    }

    impl Ord for DenseEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .priority
                .cmp(&self.priority)
                .then(other.cost.cmp(&self.cost))
        }
    }

    impl PartialOrd for DenseEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    fn dense_wave(
        grid: &GridModel,
        src: (usize, usize),
        dst: (usize, usize),
        via_cost: Coord,
        h: impl Fn(usize, usize) -> Coord,
        entry: impl Fn(usize, usize, usize) -> Option<Coord>,
        scratch: &mut DenseScratch,
    ) -> Result<Found, MazeError> {
        let (nv, nh) = (grid.nv(), grid.nh());
        if scratch.dist.len() != nv * nh * 2 {
            scratch.dist = vec![Coord::MAX; nv * nh * 2];
            scratch.moves = vec![Move::Unset; nv * nh * 2];
        }
        let found = dense_wave_in(grid, src, dst, via_cost, h, entry, scratch);
        for &k in &scratch.touched {
            scratch.dist[k as usize] = Coord::MAX;
            scratch.moves[k as usize] = Move::Unset;
        }
        scratch.touched.clear();
        scratch.heap.clear();
        found
    }

    fn dense_wave_in(
        grid: &GridModel,
        src: (usize, usize),
        dst: (usize, usize),
        via_cost: Coord,
        h: impl Fn(usize, usize) -> Coord,
        entry: impl Fn(usize, usize, usize) -> Option<Coord>,
        scratch: &mut DenseScratch,
    ) -> Result<Found, MazeError> {
        let (nv, nh) = (grid.nv(), grid.nh());
        let idx = |i: usize, j: usize, p: usize| (j * nv + i) * 2 + p;
        let set_dist = |scratch: &mut DenseScratch, k: usize, d: Coord| {
            if scratch.dist[k] == Coord::MAX {
                scratch.touched.push(k as u32);
            }
            scratch.dist[k] = d;
        };
        for p in 0..2 {
            if let Some(extra) = entry(src.0, src.1, p) {
                set_dist(scratch, idx(src.0, src.1, p), extra);
                scratch.heap.push(DenseEntry {
                    priority: extra + h(src.0, src.1),
                    cost: extra,
                    node: (src.0, src.1, p),
                });
            }
        }
        if scratch.heap.is_empty() {
            return Err(MazeError::TerminalBlocked(grid.point(src.0, src.1)));
        }
        if (0..2).all(|p| entry(dst.0, dst.1, p).is_none()) {
            return Err(MazeError::TerminalBlocked(grid.point(dst.0, dst.1)));
        }
        let mut expanded = 0usize;
        let mut goal = None;
        while let Some(DenseEntry { cost, node, .. }) = scratch.heap.pop() {
            let (i, j, p) = node;
            if cost > scratch.dist[idx(i, j, p)] {
                continue;
            }
            expanded += 1;
            if (i, j) == dst {
                goal = Some(node);
                break;
            }
            let mut relax = |ni: usize, nj: usize, np: usize, step: Coord, how: Move| {
                let Some(extra) = entry(ni, nj, np) else {
                    return;
                };
                let nd = cost + step + extra;
                let k = idx(ni, nj, np);
                if nd < scratch.dist[k] {
                    set_dist(scratch, k, nd);
                    scratch.moves[k] = how;
                    scratch.heap.push(DenseEntry {
                        priority: nd + h(ni, nj),
                        cost: nd,
                        node: (ni, nj, np),
                    });
                }
            };
            if p == 0 {
                let x = |i: usize| grid.v_tracks().offset(i);
                if i > 0 {
                    relax(i - 1, j, 0, x(i) - x(i - 1), Move::West);
                }
                if i + 1 < nv {
                    relax(i + 1, j, 0, x(i + 1) - x(i), Move::East);
                }
            } else {
                let y = |j: usize| grid.h_tracks().offset(j);
                if j > 0 {
                    relax(i, j - 1, 1, y(j) - y(j - 1), Move::South);
                }
                if j + 1 < nh {
                    relax(i, j + 1, 1, y(j + 1) - y(j), Move::North);
                }
            }
            relax(i, j, 1 - p, via_cost, Move::Via);
        }
        let goal = goal.ok_or(MazeError::NoPath)?;
        let mut nodes = Vec::new();
        let (mut i, mut j, mut p) = goal;
        loop {
            nodes.push((i, j, plane_dir(p)));
            match scratch.moves[idx(i, j, p)] {
                Move::Unset => break,
                Move::East => i -= 1,
                Move::West => i += 1,
                Move::North => j -= 1,
                Move::South => j += 1,
                Move::Via => p = 1 - p,
            }
        }
        nodes.reverse();
        Ok(Found {
            nodes,
            cost: scratch.dist[idx(goal.0, goal.1, goal.2)],
            expanded,
        })
    }

    /// [`route_maze`]'s wave on the dense reference, without occupying.
    fn dense_route(
        g: &GridModel,
        net: u32,
        src: (usize, usize),
        dst: (usize, usize),
        opts: MazeOptions,
    ) -> Result<Found, MazeError> {
        let h = |i: usize, j: usize| {
            if opts.astar {
                g.distance((i, j), dst)
            } else {
                0
            }
        };
        let entry = |i: usize, j: usize, p: usize| {
            g.state(plane_dir(p), i, j).passable_for(net).then_some(0)
        };
        dense_wave(
            g,
            src,
            dst,
            opts.via_cost,
            h,
            entry,
            &mut DenseScratch::default(),
        )
    }

    /// [`find_soft_path`] on the dense reference: the path, its cost and
    /// its blockers.
    fn dense_soft(
        g: &GridModel,
        net: u32,
        src: (usize, usize),
        dst: (usize, usize),
        via_cost: Coord,
        block_penalty: Coord,
        rippable: impl Fn(usize, usize) -> bool,
    ) -> Result<(Found, Vec<u32>), MazeError> {
        let entry = |i: usize, j: usize, p: usize| {
            let state = g.state(plane_dir(p), i, j);
            if state.passable_for(net) {
                Some(0)
            } else {
                (state.is_used() && rippable(i, j)).then_some(block_penalty)
            }
        };
        let found = dense_wave(
            g,
            src,
            dst,
            via_cost,
            |_, _| 0,
            entry,
            &mut DenseScratch::default(),
        )?;
        let mut blockers = Vec::new();
        for &(i, j, d) in &found.nodes {
            if let CellState::Used(n) = g.state(d, i, j) {
                if n != net && !blockers.contains(&n) {
                    blockers.push(n);
                }
            }
        }
        Ok((found, blockers))
    }

    /// A seeded linear congruential generator.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// A seeded `nv` × `nh` grid on irregular track pitches: about one
    /// node in eight blocked, one in five wired by a foreign net (2, 3
    /// or 4) and one in twenty by net 1 itself.
    fn seeded_grid(nv: usize, nh: usize, rng: &mut Lcg) -> GridModel {
        let mut tracks = |n: usize| {
            let mut at = 0;
            let offsets = (0..n)
                .map(|_| {
                    at += 5 + rng.below(11) as Coord;
                    at
                })
                .collect();
            TrackSet::from_offsets(offsets)
        };
        let (v, h) = (tracks(nv), tracks(nh));
        let region = Rect::new(0, 0, v.offset(nv - 1) + 5, h.offset(nh - 1) + 5);
        let mut g = GridModel::new(region, h, v);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            for j in 0..nh {
                for i in 0..nv {
                    let state = match rng.below(40) {
                        0..=4 => CellState::Blocked,
                        5..=12 => CellState::Used(2 + rng.below(3) as u32),
                        13..=14 => CellState::Used(1),
                        _ => continue,
                    };
                    g.set_state(dir, i, j, state);
                }
            }
        }
        g
    }

    #[test]
    fn tiled_wave_matches_the_dense_reference() {
        // Sides off the 16-cell tile grid, so edge tiles are partial and
        // the table's row stride is not a power of two.
        let mut rng = Lcg(0x0007_11e5);
        let grids: Vec<GridModel> = [(1, 1), (15, 17), (33, 40), (70, 9)]
            .into_iter()
            .map(|(nv, nh)| seeded_grid(nv, nh, &mut rng))
            .collect();
        // One scratch for every size, so pool tiles are reused across
        // grids and waves.
        let mut scratch = MazeScratch::new();
        let (mut ok, mut no_path, mut blocked) = (0, 0, 0);
        for call in 0..480 {
            let g = &grids[call % grids.len()];
            let mut node = || (rng.below(g.nv()), rng.below(g.nh()));
            let (src, dst) = (node(), node());
            let (from, to) = (g.point(src.0, src.1), g.point(dst.0, dst.1));
            let outcome = match call / grids.len() % 3 {
                kind @ (0 | 1) => {
                    let opts = MazeOptions {
                        via_cost: 7,
                        astar: kind == 0,
                    };
                    let tiled = route_maze_with(&mut g.clone(), 1, from, to, opts, &mut scratch)
                        .map(|p| (p.nodes, p.cost, p.expanded));
                    let dense =
                        dense_route(g, 1, src, dst, opts).map(|f| (f.nodes, f.cost, f.expanded));
                    assert_eq!(tiled, dense, "call {call}");
                    tiled.map(|_| ())
                }
                _ => {
                    let rippable = |i: usize, _| !i.is_multiple_of(3);
                    let tiled = find_soft_path_with(g, 1, from, to, 7, 300, rippable, &mut scratch)
                        .map(|s| (s.nodes, s.cost, s.blockers));
                    let dense = dense_soft(g, 1, src, dst, 7, 300, rippable)
                        .map(|(f, blockers)| (f.nodes, f.cost, blockers));
                    assert_eq!(tiled, dense, "call {call}");
                    tiled.map(|_| ())
                }
            };
            match outcome {
                Ok(()) => ok += 1,
                Err(MazeError::NoPath) => no_path += 1,
                Err(_) => blocked += 1,
            }
            assert_reset(&scratch);
        }
        assert!(
            ok > 100 && no_path > 10 && blocked > 10,
            "{ok} paths, {no_path} NoPath, {blocked} TerminalBlocked"
        );
        // The largest wave on the 33×40 grid holds at most its 3×3 tiles.
        assert!((2..=9).contains(&scratch.pool.len()));
    }

    #[test]
    fn heap_key_orders_as_priority_then_cost() {
        assert_eq!(std::mem::size_of::<QueueEntry>(), 32);
        let values = [
            Coord::MIN,
            Coord::MIN + 1,
            -7,
            -1,
            0,
            1,
            7,
            Coord::MAX - 1,
            Coord::MAX,
        ];
        let pairs = values.iter().flat_map(|&p| values.map(|c| (p, c)));
        let dense = |(priority, cost)| DenseEntry {
            priority,
            cost,
            node: (0, 0, 0),
        };
        for a in pairs.clone() {
            let key = QueueEntry::new(a.0, a.1, (70, 39, 1));
            assert_eq!((key.cost(), key.node()), (a.1, (70, 39, 1)));
            for b in pairs.clone() {
                let other = QueueEntry::new(b.0, b.1, (0, 0, 0));
                assert_eq!(key.cmp(&other), dense(a).cmp(&dense(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn off_grid_terminal_errors() {
        let mut g = grid(100, 10);
        let err = route_maze(
            &mut g,
            1,
            Point::new(3, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MazeError::OffGrid(_)));
    }
}
