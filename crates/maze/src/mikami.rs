//! Mikami–Tabuchi line-search routing.
//!
//! The classic 1968 line-probe algorithm sits between the Lee wave and
//! the paper's Track Intersection Graph search: instead of expanding
//! cell by cell, it expands *trial lines* — maximal free runs — from
//! both terminals, level by level, until a source line crosses a target
//! line. Like the TIG search it is corner-count-minimal by level; unlike
//! the TIG search it never restricts a track to one visit, so it is
//! complete (it finds a path whenever one exists). Its cost is that a
//! level may generate lines through *every* cell of the previous lines,
//! so its expansion count lands between Lee's `O(area)` and the TIG's
//! `O(tracks)` — exactly the middle ground the benchmark suite
//! demonstrates.

use crate::{MazeError, MazeOptions, MazePath};
use ocr_geom::{Dir, Point};
use ocr_grid::GridModel;

/// One trial line (a maximal free run on one plane).
#[derive(Clone, Copy, Debug)]
struct TrialLine {
    dir: Dir,
    /// Track index (j for horizontal lines, i for vertical).
    track: usize,
    /// Covered cross-index range (inclusive).
    lo: usize,
    hi: usize,
    /// The escape point this line was generated through.
    origin: (usize, usize),
    /// Parent line index in the arena (`usize::MAX` = root).
    parent: usize,
}

/// A crossing between a source-side line and a target-side line at a
/// grid cell.
type Crossing = (u32, u32, (usize, usize));

/// Which side a visited cell belongs to (bit 0 = source, bit 1 = target)
/// plus the covering line per side.
#[derive(Clone, Copy)]
struct VisitEntry {
    source_line: u32,
    target_line: u32,
}

const NONE: u32 = u32::MAX;

/// Routes one two-terminal connection with Mikami–Tabuchi line search,
/// marking the found path as used by `net` (same contract as
/// [`crate::route_maze`]).
///
/// # Errors
///
/// Same as [`crate::route_maze`]: [`MazeError::OffGrid`],
/// [`MazeError::TerminalBlocked`], [`MazeError::NoPath`].
pub fn route_mikami(
    grid: &mut GridModel,
    net: u32,
    from: Point,
    to: Point,
    _opts: MazeOptions,
) -> Result<MazePath, MazeError> {
    let src = grid.snap(from).ok_or(MazeError::OffGrid(from))?;
    let dst = grid.snap(to).ok_or(MazeError::OffGrid(to))?;
    let (nv, nh) = (grid.nv(), grid.nh());
    let passable = |t: (usize, usize)| {
        Dir::BOTH
            .iter()
            .any(|&d| grid.state(d, t.0, t.1).passable_for(net))
    };
    if !passable(src) {
        return Err(MazeError::TerminalBlocked(from));
    }
    if !passable(dst) {
        return Err(MazeError::TerminalBlocked(to));
    }

    // Per plane, per cell: which line (per side) first covered it.
    let mut visited: Vec<[VisitEntry; 2]> = vec![
        [VisitEntry {
            source_line: NONE,
            target_line: NONE
        }; 2];
        nv * nh
    ];
    let idx = |i: usize, j: usize| j * nv + i;
    let mut lines: Vec<TrialLine> = Vec::new();
    let mut expanded = 0usize;

    // Generates the maximal free line through `at` on plane `dir`,
    // records coverage for `side` (0 = source, 1 = target), and reports
    // a crossing with the opposite side if one exists on the
    // perpendicular plane of any covered cell.
    let mut emit = |grid: &GridModel,
                    lines: &mut Vec<TrialLine>,
                    visited: &mut Vec<[VisitEntry; 2]>,
                    expanded: &mut usize,
                    side: usize,
                    dir: Dir,
                    at: (usize, usize),
                    parent: usize|
     -> Option<Crossing> {
        let (track, through, limit) = match dir {
            Dir::Horizontal => (at.1, at.0, nv),
            Dir::Vertical => (at.0, at.1, nh),
        };
        let pass = |k: usize| grid.cell_passable(net, dir, track, k);
        if !pass(through) {
            return None;
        }
        let mut lo = through;
        while lo > 0 && pass(lo - 1) {
            lo -= 1;
        }
        let mut hi = through;
        while hi + 1 < limit && pass(hi + 1) {
            hi += 1;
        }
        let line_id = lines.len() as u32;
        lines.push(TrialLine {
            dir,
            track,
            lo,
            hi,
            origin: at,
            parent,
        });
        let mut crossing = None;
        for k in lo..=hi {
            let (i, j) = match dir {
                Dir::Horizontal => (k, track),
                Dir::Vertical => (track, k),
            };
            let cell = &mut visited[idx(i, j)][dir.index()];
            let slot = if side == 0 {
                &mut cell.source_line
            } else {
                &mut cell.target_line
            };
            if *slot == NONE {
                *slot = line_id;
                *expanded += 1;
            }
            // A crossing needs a usable corner: both planes passable
            // here, and the opposite side present on the perpendicular
            // plane at this cell.
            let perp = visited[idx(i, j)][dir.perp().index()];
            let other = if side == 0 {
                perp.target_line
            } else {
                perp.source_line
            };
            if other != NONE && crossing.is_none() && grid.corner_usable(net, i, j) {
                let (s_line, t_line) = if side == 0 {
                    (line_id, other)
                } else {
                    (other, line_id)
                };
                crossing = Some((s_line, t_line, (i, j)));
            }
        }
        crossing
    };

    // Level 0: lines through both terminals on both planes.
    let mut frontier: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut found: Option<Crossing> = None;
    for (side, term) in [(0usize, src), (1usize, dst)] {
        for dir in Dir::BOTH {
            let before = lines.len() as u32;
            if let Some(hit) = emit(
                grid,
                &mut lines,
                &mut visited,
                &mut expanded,
                side,
                dir,
                term,
                usize::MAX,
            ) {
                found = Some(hit);
            }
            if (lines.len() as u32) > before {
                frontier[side].push(before);
            }
        }
    }

    // Alternate expanding the smaller frontier until crossing.
    while found.is_none() {
        let side = if frontier[0].len() <= frontier[1].len() {
            0
        } else {
            1
        };
        if frontier[side].is_empty() {
            // One side exhausted: if the other is too, no path.
            let other = 1 - side;
            if frontier[other].is_empty() {
                return Err(MazeError::NoPath);
            }
            // Expand the other side instead.
            let next = expand_level(
                grid,
                &mut lines,
                &mut visited,
                &mut expanded,
                other,
                &frontier[other],
                &mut emit,
            );
            if let Some(hit) = next.1 {
                found = Some(hit);
                break;
            }
            frontier[other] = next.0;
            if frontier[other].is_empty() && frontier[side].is_empty() {
                return Err(MazeError::NoPath);
            }
            continue;
        }
        let next = expand_level(
            grid,
            &mut lines,
            &mut visited,
            &mut expanded,
            side,
            &frontier[side],
            &mut emit,
        );
        if let Some(hit) = next.1 {
            found = Some(hit);
            break;
        }
        frontier[side] = next.0;
        if frontier[0].is_empty() && frontier[1].is_empty() {
            return Err(MazeError::NoPath);
        }
    }

    // Reconstruct: corner points from the crossing back to each root.
    let (s_line, t_line, cross) = found.expect("loop exits with a crossing");
    let mut points_rev = vec![grid.point(cross.0, cross.1)];
    let walk = |mut line: u32, points: &mut Vec<Point>| loop {
        let l = lines[line as usize];
        points.push(grid.point(l.origin.0, l.origin.1));
        if l.parent == usize::MAX {
            break;
        }
        line = l.parent as u32;
    };
    // Source side: cross → … → src (reversed later).
    walk(s_line, &mut points_rev);
    points_rev.reverse(); // src … cross
    let mut points = points_rev;
    walk(t_line, &mut points); // + cross-side back to dst
    points.dedup();

    // Convert the corner chain into nodes (per-plane cell walks) so the
    // occupancy and geometry helpers of the Lee router can be reused.
    let mut nodes: Vec<(usize, usize, Dir)> = Vec::new();
    for w in points.windows(2) {
        let (a, b) = (
            grid.snap(w[0]).expect("on grid"),
            grid.snap(w[1]).expect("on grid"),
        );
        let dir = if w[0].y == w[1].y {
            Dir::Horizontal
        } else {
            Dir::Vertical
        };
        let (fix, from_k, to_k) = match dir {
            Dir::Horizontal => (a.1, a.0, b.0),
            Dir::Vertical => (a.0, a.1, b.1),
        };
        let range: Vec<usize> = if from_k <= to_k {
            (from_k..=to_k).collect()
        } else {
            (to_k..=from_k).rev().collect()
        };
        for k in range {
            let (i, j) = match dir {
                Dir::Horizontal => (k, fix),
                Dir::Vertical => (fix, k),
            };
            if nodes.last() != Some(&(i, j, dir)) {
                nodes.push((i, j, dir));
            }
        }
    }
    let route = crate::path_to_route(grid, &nodes);
    crate::occupy_path(grid, net, &nodes);
    let cost = route.wire_length();
    Ok(MazePath {
        route,
        cost,
        expanded,
        nodes,
    })
}

/// Expands one level of one side; returns the new frontier and a
/// crossing if found.
#[allow(clippy::too_many_arguments)]
fn expand_level(
    grid: &GridModel,
    lines: &mut Vec<TrialLine>,
    visited: &mut Vec<[VisitEntry; 2]>,
    expanded: &mut usize,
    side: usize,
    frontier: &[u32],
    emit: &mut impl FnMut(
        &GridModel,
        &mut Vec<TrialLine>,
        &mut Vec<[VisitEntry; 2]>,
        &mut usize,
        usize,
        Dir,
        (usize, usize),
        usize,
    ) -> Option<Crossing>,
) -> (Vec<u32>, Option<Crossing>) {
    let mut next = Vec::new();
    for &lid in frontier {
        let line = lines[lid as usize];
        let perp = line.dir.perp();
        for k in line.lo..=line.hi {
            let at = match line.dir {
                Dir::Horizontal => (k, line.track),
                Dir::Vertical => (line.track, k),
            };
            // Skip escape points whose perpendicular plane is already
            // covered by this side (their line exists).
            let already = {
                let e = visited[at.1 * grid.nv() + at.0][perp.index()];
                let slot = if side == 0 {
                    e.source_line
                } else {
                    e.target_line
                };
                slot != NONE
            };
            if already {
                continue;
            }
            let before = lines.len() as u32;
            if let Some(hit) = emit(grid, lines, visited, expanded, side, perp, at, lid as usize) {
                return (next, Some(hit));
            }
            if (lines.len() as u32) > before {
                next.push(before);
            }
        }
    }
    (next, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_maze;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::{CellState, TrackSet};

    fn grid(n: i64, pitch: i64) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    #[test]
    fn straight_and_l_connections() {
        let mut g = grid(100, 10);
        let p = route_mikami(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 100);
        let mut g2 = grid(100, 10);
        let p2 = route_mikami(
            &mut g2,
            1,
            Point::new(0, 0),
            Point::new(100, 100),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p2.route.wire_length(), 200);
        assert_eq!(p2.route.vias.len(), 1);
    }

    #[test]
    fn detours_around_obstacles_like_lee() {
        let mut g = grid(100, 10);
        for dir in Dir::BOTH {
            g.block_rect(&Rect::new(35, -5, 45, 85), dir);
        }
        let p = route_mikami(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert!(
            p.route.wire_length() > 100,
            "must detour, wl {}",
            p.route.wire_length()
        );
        // Completeness parity with Lee on the same instance.
        let mut g2 = grid(100, 10);
        for dir in Dir::BOTH {
            g2.block_rect(&Rect::new(35, -5, 45, 85), dir);
        }
        assert!(route_maze(
            &mut g2,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn no_path_is_reported() {
        let mut g = grid(100, 10);
        for dir in Dir::BOTH {
            g.block_rect(&Rect::new(35, -5, 45, 105), dir);
        }
        let err = route_mikami(
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
    fn expands_fewer_cells_than_lee_on_open_grids() {
        let mut g1 = grid(400, 10);
        let mut g2 = grid(400, 10);
        let lee = route_maze(
            &mut g1,
            1,
            Point::new(0, 0),
            Point::new(400, 400),
            MazeOptions::default(),
        )
        .expect("lee");
        let mt = route_mikami(
            &mut g2,
            1,
            Point::new(0, 0),
            Point::new(400, 400),
            MazeOptions::default(),
        )
        .expect("mikami");
        assert!(
            mt.expanded < lee.expanded,
            "mikami {} vs lee {}",
            mt.expanded,
            lee.expanded
        );
    }

    #[test]
    fn avoids_other_nets_wiring() {
        let mut g = grid(100, 10);
        g.occupy_run(Dir::Horizontal, 5, 0, 10, 9); // net 9 across row 5
        let p = route_mikami(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes around");
        // Must leave row 50 (used by net 9) — any valid route works; the
        // validator-level guarantee is that no cell of net 9 is reused.
        for &(i, j, d) in &p.nodes {
            assert_ne!(g.state(d, i, j), CellState::Used(9), "stole net 9's cell");
        }
    }

    #[test]
    fn occupies_its_path() {
        let mut g = grid(100, 10);
        route_mikami(
            &mut g,
            7,
            Point::new(0, 0),
            Point::new(100, 100),
            MazeOptions::default(),
        )
        .expect("routes");
        // Another net straight through the same corner cell must fail or
        // detour.
        let p2 = route_mikami(
            &mut g,
            8,
            Point::new(0, 100),
            Point::new(100, 0),
            MazeOptions::default(),
        );
        if let Ok(p) = p2 {
            for &(i, j, d) in &p.nodes {
                assert_ne!(g.state(d, i, j), CellState::Used(7));
            }
        }
    }
}
