//! Path Selection Trees: enumerating and selecting among the
//! minimum-corner paths found by the MBFS.
//!
//! Paper §3.2: "The Path Selection Trees created during the path
//! searching procedure are used to select the best path for the
//! completion of the interconnection when multiple paths with the same
//! number of directional changes are identified. … A backtracking
//! technique, that is a depth first search with bounding functions, is
//! used to select the best path."
//!
//! A candidate path is a sequence of alternating tracks from the start
//! vertex to a target vertex; its geometry (corner points) is fully
//! determined by consecutive track crossings. Because the MBFS records
//! *all* predecessors at level − 1, recombined paths may traverse a
//! track segment not verified during discovery. The selection walk
//! therefore checks each run against the grid as soon as it fixes it,
//! and abandons a partial path at its first blocked run.
//!
//! [`select_best_path`] and [`enumerate_paths`] share one walk per PST
//! (`Walk`): a depth-first search over the predecessor DAG from each
//! target back to the start, on one path buffer, with the integer wire
//! length carried along. Selection keeps no list of candidates, only
//! the running first minimum. DESIGN.md §14 ("Path selection") gives
//! the invariants that keep it bit-identical to realizing and sorting
//! every candidate.

use crate::cost::CostEvaluator;
use crate::mbfs::{Pst, SearchOutcome, Slot, VertexKey};
use ocr_geom::{Coord, Dir, Point};
use ocr_grid::GridModel;
use std::collections::HashMap;

/// Realized candidates one PST may contribute to a selection, a
/// safeguard on pathological DAGs.
const SELECTION_CAP: usize = 256;

/// A fully realized candidate path.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidatePath {
    /// The track sequence from terminal 1's track to terminal 2's track.
    pub tracks: Vec<VertexKey>,
    /// Path points: terminal 1, corners…, terminal 2.
    pub points: Vec<Point>,
    /// Number of corners (`tracks.len() - 1`).
    pub corners: usize,
    /// Cost under the selection cost function.
    pub cost: f64,
}

impl CandidatePath {
    /// The candidate on `tracks` (in order from terminal 1) with `cost`.
    fn new(
        grid: &GridModel,
        tracks: Vec<VertexKey>,
        term1: Point,
        term2: Point,
        cost: f64,
    ) -> Self {
        let mut points = Vec::with_capacity(tracks.len() + 1);
        points.push(term1);
        points.extend(tracks.windows(2).map(|w| {
            let (i, j) = crossing(w[0], w[1]);
            grid.point(i, j)
        }));
        points.push(term2);
        CandidatePath {
            corners: tracks.len() - 1,
            tracks,
            points,
            cost,
        }
    }
}

/// Grid indices `(i, j)` of the crossing of two perpendicular tracks.
#[inline]
fn crossing(a: VertexKey, b: VertexKey) -> (usize, usize) {
    match a.0 {
        Dir::Horizontal => (b.1, a.1),
        Dir::Vertical => (a.1, b.1),
    }
}

/// `true` if `net` may run along a track of plane `dir` from cell `a` to
/// cell `b`: both lie on one track of that plane and every cell between
/// them is passable.
#[inline]
fn run_free(grid: &GridModel, net: u32, dir: Dir, a: (usize, usize), b: (usize, usize)) -> bool {
    match dir {
        Dir::Horizontal => a.1 == b.1 && grid.run_is_free(Dir::Horizontal, a.1, a.0, b.0, net),
        Dir::Vertical => a.0 == b.0 && grid.run_is_free(Dir::Vertical, a.0, a.1, b.1, net),
    }
}

/// A track of the walk's path and the `at` of its [`Frame`].
type Step = (Slot, (usize, usize));

/// One entry of the walk's stack: an admitted track and what the walk
/// knows once it is appended to the path.
#[derive(Clone, Copy, Debug)]
struct Frame {
    slot: Slot,
    /// Position of `slot` in the path (0 = the target).
    depth: usize,
    /// Where the run along `slot` ends toward terminal 2: terminal 2's
    /// cell for the target, else the crossing with the track before.
    at: (usize, usize),
    /// Wire length from terminal 2 to `at`.
    wl: Coord,
}

/// The branch-and-bound walk over the PSTs of one selection call.
///
/// Per target, a depth-first search runs backward over the predecessor
/// DAG to the start. Each parent is bounded against the best cost of
/// the PST at that moment, then the run it ends is checked against the
/// grid, and only then is it admitted to the stack. Admitted parents
/// are walked last-first. A complete path costs `wl_cost` of its wire
/// length plus its corner costs added in order from terminal 1, which
/// is [`CostEvaluator::path_cost`]'s sum; the corner costs are memoized
/// per cell across the call.
struct Walk<'a> {
    grid: &'a GridModel,
    net: u32,
    term1: Point,
    term2: Point,
    evaluator: &'a CostEvaluator<'a>,
    /// Corner costs by cell.
    memo: HashMap<(usize, usize), f64>,
    stack: Vec<Frame>,
    /// The current path, from the target.
    path: Vec<Step>,
    /// Frames popped over the call.
    nodes: u64,
    /// Candidates realized over the call.
    candidates: u64,
}

impl<'a> Walk<'a> {
    fn new(
        grid: &'a GridModel,
        net: u32,
        term1: Point,
        term2: Point,
        evaluator: &'a CostEvaluator<'a>,
    ) -> Self {
        Walk {
            grid,
            net,
            term1,
            term2,
            evaluator,
            memo: HashMap::new(),
            stack: Vec::new(),
            path: Vec::new(),
            nodes: 0,
            candidates: 0,
        }
    }

    /// Walks `pst` until `cap` candidates are realized, calling `visit`
    /// with each one's path (from the target back to the start) and
    /// cost: target by target, depth first, a vertex's last admitted
    /// parent first.
    fn run(&mut self, pst: &Pst<'_>, cap: usize, mut visit: impl FnMut(&[Step], f64)) {
        let (Some(a), Some(b)) = (self.grid.snap(self.term1), self.grid.snap(self.term2)) else {
            // A path must start and end on grid points.
            return;
        };
        let (grid, net, ev) = (self.grid, self.net, self.evaluator);
        let start = pst.slot_of(pst.start);
        let mut best = f64::INFINITY;
        let mut realized = 0;
        for &target in &pst.targets {
            self.stack.push(Frame {
                slot: pst.slot_of(target),
                depth: 0,
                at: b,
                wl: 0,
            });
            while let Some(f) = self.stack.pop() {
                if realized >= cap {
                    self.stack.clear();
                    return;
                }
                self.nodes += 1;
                self.path.truncate(f.depth);
                self.path.push((f.slot, f.at));
                let key = pst.key_of(f.slot);
                let at = grid.point(f.at.0, f.at.1);
                if f.slot == start {
                    if !run_free(grid, net, key.0, a, f.at) {
                        continue;
                    }
                    let mut cost = ev.wl_cost(f.wl + ocr_geom::manhattan(at, self.term1));
                    for &(_, corner) in self.path[1..].iter().rev() {
                        cost += *self
                            .memo
                            .entry(corner)
                            .or_insert_with(|| ev.corner_cost(corner));
                    }
                    realized += 1;
                    self.candidates += 1;
                    if cost < best {
                        best = cost;
                    }
                    visit(&self.path, cost);
                    continue;
                }
                for &parent in pst.parents_of(f.slot) {
                    let corner = crossing(key, pst.key_of(parent));
                    let to = grid.point(corner.0, corner.1);
                    let wl = f.wl + ocr_geom::manhattan(at, to);
                    // Bounding: the wire length so far plus the
                    // straight-line remainder to terminal 1 must not
                    // exceed the best complete cost.
                    if best.is_finite() && ev.bound(ev.wl_cost(wl), to, self.term1) > best {
                        continue;
                    }
                    // The run this parent ends. The corner needs no check
                    // of its own: each of its two runs covers it on its
                    // own plane, and the MBFS derives an edge only at a
                    // usable corner.
                    if !run_free(grid, net, key.0, f.at, corner) {
                        continue;
                    }
                    self.stack.push(Frame {
                        slot: parent,
                        depth: f.depth + 1,
                        at: corner,
                        wl,
                    });
                }
            }
        }
    }
}

/// The track sequence of a walked path, in order from terminal 1.
fn tracks_of(pst: &Pst<'_>, rev_path: &[Step]) -> Vec<VertexKey> {
    rev_path.iter().rev().map(|&(s, _)| pst.key_of(s)).collect()
}

/// Enumerates the candidate paths of one PST via depth-first search over
/// the predecessor DAG, with a branch-and-bound cut: a partial path whose
/// bound already exceeds the best complete cost is abandoned, and so is
/// one with a blocked run.
///
/// Returns candidates sorted by cost (best first). `cap` bounds the
/// number of *realized* candidates examined, as a safeguard on
/// pathological DAGs.
pub fn enumerate_paths(
    grid: &GridModel,
    net: u32,
    pst: &Pst<'_>,
    term1: Point,
    term2: Point,
    evaluator: &CostEvaluator<'_>,
    cap: usize,
) -> Vec<CandidatePath> {
    let mut out: Vec<CandidatePath> = Vec::new();
    Walk::new(grid, net, term1, term2, evaluator).run(pst, cap, |rev_path, cost| {
        out.push(CandidatePath::new(
            grid,
            tracks_of(pst, rev_path),
            term1,
            term2,
            cost,
        ));
    });
    // Total order even under non-finite costs (a NaN never panics the
    // sort and never outranks a finite cost): cost, then corner count,
    // then original candidate index (sort_by is stable).
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.corners.cmp(&b.corners)));
    out
}

/// Selects the best path over both PSTs of a [`SearchOutcome`],
/// considering only searches that achieved the global minimum corner
/// count: the first minimum by `total_cmp` cost, in walk order, `from_v`
/// before `from_h`. Each PST is walked with its own bound and a cap of
/// 256 realized candidates, exactly as [`enumerate_paths`] walks it.
///
/// Records the walk's work in the `level_b.select_nodes` and
/// `level_b.select_candidates` counters.
pub fn select_best_path(
    grid: &GridModel,
    net: u32,
    outcome: &SearchOutcome<'_>,
    term1: Point,
    term2: Point,
    evaluator: &CostEvaluator<'_>,
) -> Option<CandidatePath> {
    let min = outcome.corners?;
    let mut walk = Walk::new(grid, net, term1, term2, evaluator);
    let mut best: Option<(Vec<VertexKey>, f64)> = None;
    for pst in [&outcome.from_v, &outcome.from_h] {
        if pst.corners != Some(min) {
            continue;
        }
        walk.run(pst, SELECTION_CAP, |rev_path, cost| {
            // total_cmp keeps the earlier candidate on ties and never
            // lets a NaN cost displace a finite one.
            if best.as_ref().is_none_or(|(_, b)| cost.total_cmp(b).is_lt()) {
                best = Some((tracks_of(pst, rev_path), cost));
            }
        });
    }
    ocr_obs::count("level_b.select_nodes", walk.nodes);
    ocr_obs::count("level_b.select_candidates", walk.candidates);
    best.map(|(tracks, cost)| CandidatePath::new(grid, tracks, term1, term2, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{terminals_near_window, CostWeights};
    use crate::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
    use crate::testkit::{random_grid, Mix};
    use ocr_geom::{Interval, Rect};
    use ocr_grid::{CellState, GridModel, TrackSet};

    /// Realizes a track sequence into points and validates every run and
    /// corner against the grid: the check the walk makes as it goes, made
    /// here on a whole sequence. `None` if any run or corner is blocked
    /// (a recombined path crossing an unverified segment).
    fn realize(
        grid: &GridModel,
        net: u32,
        tracks: &[VertexKey],
        term1: Point,
        term2: Point,
    ) -> Option<Vec<Point>> {
        let mut points = Vec::with_capacity(tracks.len() + 1);
        points.push(term1);
        for w in tracks.windows(2) {
            let (i, j) = crossing(w[0], w[1]);
            points.push(grid.point(i, j));
        }
        points.push(term2);
        for (r, &(dir, _)) in tracks.iter().enumerate() {
            let a = grid.snap(points[r])?;
            let b = grid.snap(points[r + 1])?;
            if !run_free(grid, net, dir, a, b) {
                return None;
            }
        }
        for p in &points[1..points.len() - 1] {
            let (i, j) = grid.snap(*p)?;
            if !grid.corner_usable(net, i, j) {
                return None;
            }
        }
        Some(points)
    }

    /// The enumeration the walk replaced, kept as its reference: a stack
    /// of cloned partial paths, each complete one realized and costed
    /// only at the end, then the list sorted.
    fn enumerate_paths_reference(
        grid: &GridModel,
        net: u32,
        pst: &Pst<'_>,
        term1: Point,
        term2: Point,
        evaluator: &CostEvaluator<'_>,
        cap: usize,
    ) -> Vec<CandidatePath> {
        // Wire-length lower bound of a partial (reversed) slot path.
        let lower_bound = |rev_partial: &[Slot]| {
            let mut pts = vec![term2];
            for w in rev_partial.windows(2) {
                let (i, j) = crossing(pst.key_of(w[0]), pst.key_of(w[1]));
                pts.push(grid.point(i, j));
            }
            let wl = pts
                .windows(2)
                .map(|w| ocr_geom::manhattan(w[0], w[1]))
                .sum();
            let last = *pts.last().expect("non-empty");
            evaluator.bound(evaluator.wl_cost(wl), last, term1)
        };
        let mut out: Vec<CandidatePath> = Vec::new();
        let mut best = f64::INFINITY;
        let start_slot = pst.slot_of(pst.start);
        for &target in &pst.targets {
            let mut stack: Vec<Vec<Slot>> = vec![vec![pst.slot_of(target)]];
            while let Some(rev_path) = stack.pop() {
                if out.len() >= cap {
                    break;
                }
                let last = *rev_path.last().expect("non-empty");
                if last == start_slot {
                    let tracks: Vec<VertexKey> =
                        rev_path.iter().rev().map(|&s| pst.key_of(s)).collect();
                    if let Some(points) = realize(grid, net, &tracks, term1, term2) {
                        let cost = evaluator.path_cost(&points);
                        if cost < best {
                            best = cost;
                        }
                        out.push(CandidatePath {
                            corners: tracks.len() - 1,
                            tracks,
                            points,
                            cost,
                        });
                    }
                    continue;
                }
                if pst.get(pst.key_of(last)).is_none() {
                    continue;
                }
                for &parent in pst.parents_of(last) {
                    let mut partial = rev_path.clone();
                    partial.push(parent);
                    if best.is_finite() && lower_bound(&partial) > best {
                        continue;
                    }
                    stack.push(partial);
                }
            }
        }
        out.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.corners.cmp(&b.corners)));
        out
    }

    fn grid(n: i64, pitch: i64) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    fn select(
        g: &GridModel,
        net: u32,
        t1: (usize, usize),
        t2: (usize, usize),
    ) -> Option<CandidatePath> {
        let w = SearchWindow::full(g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(g, net, t1, t2, &w, &mut scratch);
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(g, &terms, CostWeights::default(), 10);
        select_best_path(g, net, &out, g.point(t1.0, t1.1), g.point(t2.0, t2.1), &ev)
    }

    #[test]
    fn l_path_realizes_with_one_corner() {
        let g = grid(100, 10);
        let p = select(&g, 0, (0, 0), (10, 10)).expect("path");
        assert_eq!(p.corners, 1);
        assert_eq!(p.points.len(), 3);
        // Wire length equals the Manhattan distance (monotone path).
        let wl: i64 = p
            .points
            .windows(2)
            .map(|w| ocr_geom::manhattan(w[0], w[1]))
            .sum();
        assert_eq!(wl, 200);
    }

    #[test]
    fn straight_path_has_no_corner() {
        let g = grid(100, 10);
        let p = select(&g, 0, (0, 4), (10, 4)).expect("path");
        assert_eq!(p.corners, 0);
        assert_eq!(p.points.len(), 2);
    }

    #[test]
    fn cost_breaks_ties_toward_uncongested_corners() {
        let mut g = grid(100, 10);
        // Congest the lower-left region: corners there get expensive.
        for j in 0..4 {
            g.occupy_run(Dir::Horizontal, j, 0, 3, 9);
        }
        let p = select(&g, 0, (0, 0), (10, 10)).expect("path");
        assert_eq!(p.corners, 1);
        // Two 1-corner paths exist: corner at (100, 0) [lower right] or
        // (0, 100) [upper left]. Wait—the corner options are (v10,h0) via
        // h0 first, or (v0,h10). The lower-left congestion is near
        // (0,0)–(30,30); corner (0,100) is the upper-left, corner
        // (100,0) the lower-right. Both are far from the congestion, but
        // the run along h0 passes… runs do not cost, corners do. Both
        // corners cost ~0, so either is acceptable; just assert validity.
        let corner = p.points[1];
        assert!(corner == Point::new(100, 0) || corner == Point::new(0, 100));
    }

    #[test]
    fn blocked_recombination_is_filtered() {
        let mut g = grid(100, 10);
        // A wall with a single gap forces specific segments; realized
        // candidates must all validate.
        g.block_rect(&Rect::new(-5, 35, 75, 45), Dir::Horizontal);
        g.block_rect(&Rect::new(-5, 35, 75, 45), Dir::Vertical);
        let p = select(&g, 0, (0, 0), (0, 10));
        if let Some(path) = p {
            // Any returned path must be geometrically valid (the walk
            // checked every run and corner); check it clears the wall
            // band.
            for w in path.points.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a.x == b.x && a.x <= 70 {
                    // vertical run left of the gap: must not cross y=40
                    let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                    assert!(!(lo < 40 && 40 < hi), "run {a}–{b} crosses the wall");
                }
            }
        }
    }

    #[test]
    fn bounding_never_prunes_the_optimum() {
        // Congest part of the grid so costs differ, then check that the
        // branch-and-bound enumeration's best equals the best over an
        // exhaustive (unbounded-cap) enumeration.
        let mut g = grid(80, 10);
        for j in 0..5 {
            g.occupy_run(Dir::Horizontal, j, 0, 4, 9);
        }
        let w = SearchWindow::full(&g);
        let t1 = (5usize, 0usize);
        let t2 = (0usize, 7usize);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, t1, t2, &w, &mut scratch);
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let best = select_best_path(&g, 0, &out, g.point(t1.0, t1.1), g.point(t2.0, t2.1), &ev)
            .expect("path");
        let mut exhaustive_best = f64::INFINITY;
        for pst in [&out.from_v, &out.from_h] {
            if pst.corners != out.corners {
                continue;
            }
            for c in enumerate_paths(
                &g,
                0,
                pst,
                g.point(t1.0, t1.1),
                g.point(t2.0, t2.1),
                &ev,
                100_000,
            ) {
                exhaustive_best = exhaustive_best.min(c.cost);
            }
        }
        assert!(
            (best.cost - exhaustive_best).abs() < 1e-9,
            "bounded best {} vs exhaustive {}",
            best.cost,
            exhaustive_best
        );
    }

    #[test]
    fn candidate_cap_limits_enumeration() {
        let g = grid(200, 10);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 0), (20, 20), &w, &mut scratch);
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let capped = enumerate_paths(&g, 0, &out.from_v, g.point(0, 0), g.point(20, 20), &ev, 3);
        assert!(capped.len() <= 3);
        assert!(!capped.is_empty());
    }

    #[test]
    fn equal_length_paths_tie_on_cost_without_congestion() {
        let g = grid(40, 10);
        let w = SearchWindow::full(&g);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&g, 0, (0, 0), (4, 4), &w, &mut scratch);
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let cands = enumerate_paths(&g, 0, &out.from_v, g.point(0, 0), g.point(4, 4), &ev, 64);
        assert!(!cands.is_empty());
        // All 1-corner monotone paths share the same wire length.
        for c in &cands {
            assert_eq!(c.corners, 1);
            assert!((c.cost - cands[0].cost).abs() < 1e-9);
        }
    }

    /// Every track sequence of `pst`, with no bound and no cap: target by
    /// target, in the depth-first order [`enumerate_paths`] walks them (a
    /// stack, so a vertex's last parent comes first). `None` once there
    /// are more than `limit`.
    fn all_track_sequences(pst: &Pst, limit: usize) -> Option<Vec<Vec<VertexKey>>> {
        let mut out = Vec::new();
        for &target in &pst.targets {
            let mut stack = vec![vec![target]];
            while let Some(rev) = stack.pop() {
                let last = *rev.last().expect("non-empty");
                if last == pst.start {
                    if out.len() == limit {
                        return None;
                    }
                    out.push(rev.iter().rev().copied().collect());
                    continue;
                }
                for parent in pst.get(last).expect("visited").parents() {
                    let mut longer = rev.clone();
                    longer.push(parent);
                    stack.push(longer);
                }
            }
        }
        Some(out)
    }

    /// A search instance whose minimum-corner paths are the many
    /// three-corner staircases of a box: terminal 1 can leave only along
    /// its vertical track and terminal 2 be entered only along its
    /// horizontal one, and the one-corner crossing of those two tracks is
    /// blocked. The candidates are all `(row, column)` pairs of the box,
    /// so the PSTs hold tens to thousands of them. Terminals are swapped
    /// half the time so that `from_h` carries the staircases, and foreign
    /// wiring varies the corner costs.
    fn staircase_grid(rng: &mut Mix) -> (GridModel, (usize, usize), (usize, usize)) {
        let n = [40usize, 64, 65, 90][rng.below(4)];
        let span = 10 * (n as i64 - 1);
        let mut g = grid(span, 10);
        let (i0, j0) = (1 + rng.below(n / 3), 1 + rng.below(n / 3));
        let (i1, j1) = (i0 + 3 + rng.below(n / 2), j0 + 3 + rng.below(n / 2));
        let (a, b) = ((i0, j0), (i1, j1));
        for t in [a, b] {
            for dir in [Dir::Horizontal, Dir::Vertical] {
                g.set_state(dir, t.0, t.1, CellState::Used(1));
            }
        }
        for (dir, i, j) in [
            (Dir::Horizontal, i0 - 1, j0),
            (Dir::Horizontal, i0 + 1, j0),
            (Dir::Vertical, i1, j1 - 1),
            (Dir::Vertical, i1, j1 + 1),
            (Dir::Horizontal, i0, j1),
            (Dir::Vertical, i0, j1),
        ] {
            g.set_state(dir, i, j, CellState::Blocked);
        }
        // Foreign wiring (nets 2..=5) on up to 40 runs, sparing the
        // terminals.
        for _ in 0..rng.below(40) {
            let dir = if rng.below(2) == 0 {
                Dir::Horizontal
            } else {
                Dir::Vertical
            };
            let track = rng.below(g.track_count(dir));
            let cross = g.cross_len(dir);
            let from = rng.below(cross);
            let to = (from + rng.below(cross / 2 + 1)).min(cross - 1);
            let net = 2 + rng.below(4) as u32;
            for k in from..=to {
                let (i, j) = match dir {
                    Dir::Horizontal => (k, track),
                    Dir::Vertical => (track, k),
                };
                if ![a, b].contains(&(i, j)) && g.state(dir, i, j) != CellState::Blocked {
                    g.set_state(dir, i, j, CellState::Used(net));
                }
            }
        }
        if rng.below(2) == 0 {
            (g, a, b)
        } else {
            (g, b, a)
        }
    }

    #[test]
    fn selection_matches_exhaustive_enumeration_and_its_cap_losses_are_pinned() {
        const INSTANCES: usize = 1000;
        const LIMIT: usize = 2000;
        let mut rng = Mix(0x5e_1ec7);
        let mut scratch = SearchScratch::new();
        let (mut checked, mut skipped, mut over_cap) = (0, 0, 0);
        let (mut no_realization, mut cap_losses) = (0, 0);
        let mut case = 0;
        while checked < INSTANCES {
            case += 1;
            let (g, a, b) = if case % 2 == 0 {
                random_grid(&mut rng)
            } else {
                staircase_grid(&mut rng)
            };
            let window = if rng.below(4) == 0 {
                SearchWindow::full(&g)
            } else {
                SearchWindow::around(&g, a, b, rng.below(8))
            };
            let out = search_min_corner_paths(&g, 1, a, b, &window, &mut scratch);
            // Unrouted terminals anywhere on the die, in a random order.
            let terminals: Vec<(usize, usize)> = (0..1 + rng.below(120))
                .map(|_| (rng.below(g.nv()), rng.below(g.nh())))
                .collect();
            let min_psts: Vec<&Pst> = [&out.from_v, &out.from_h]
                .into_iter()
                .filter(|pst| out.corners.is_some() && pst.corners == out.corners)
                .collect();
            let sequences: Option<Vec<Vec<Vec<VertexKey>>>> = min_psts
                .iter()
                .map(|pst| all_track_sequences(pst, LIMIT))
                .collect();
            match (out.corners, sequences) {
                (None, _) => {}
                (Some(_), None) => skipped += 1,
                (Some(_), Some(sequences)) => {
                    checked += 1;
                    over_cap += usize::from(sequences.iter().any(|s| s.len() > 256));
                    let (t1, t2) = (g.point(a.0, a.1), g.point(b.0, b.1));
                    let realized: Vec<(&Vec<VertexKey>, Vec<Point>)> = sequences
                        .iter()
                        .flatten()
                        .filter_map(|tracks| Some((tracks, realize(&g, 1, tracks, t1, t2)?)))
                        .collect();
                    for weights in [CostWeights::default(), CostWeights::dense()] {
                        let ev = CostEvaluator::new(&g, &terminals, weights, 10);
                        // The first minimum in the documented order: cost
                        // by total_cmp, then corners (equal here), then
                        // enumeration order, from_v before from_h.
                        let mut truth: Option<(Vec<VertexKey>, f64)> = None;
                        for (tracks, points) in &realized {
                            let cost = ev.path_cost(points);
                            if truth.as_ref().is_none_or(|t| cost.total_cmp(&t.1).is_lt()) {
                                truth = Some((tracks.to_vec(), cost));
                            }
                        }
                        let truth = truth.map(|(tracks, cost)| (tracks, cost.to_bits()));
                        let selected = select_best_path(&g, 1, &out, t1, t2, &ev)
                            .map(|p| (p.tracks, p.cost.to_bits()));
                        no_realization += usize::from(truth.is_none());
                        if selected == truth {
                            continue;
                        }
                        // Only the 256-candidate cap may lose the optimum,
                        // never the bound: the selector's own combination
                        // of the two PSTs finds it once the cap is lifted.
                        let pick = |cap: usize| {
                            let mut best: Option<CandidatePath> = None;
                            for pst in &min_psts {
                                let first = enumerate_paths(&g, 1, pst, t1, t2, &ev, cap);
                                if let Some(c) = first.into_iter().next() {
                                    if best
                                        .as_ref()
                                        .is_none_or(|b| c.cost.total_cmp(&b.cost).is_lt())
                                    {
                                        best = Some(c);
                                    }
                                }
                            }
                            best.map(|p| (p.tracks, p.cost.to_bits()))
                        };
                        let ctx = format!("case {case}, {weights:?}");
                        assert!(selected.is_some(), "{ctx}: no path, oracle {truth:?}");
                        assert_eq!(pick(256), selected, "{ctx}");
                        assert_eq!(pick(usize::MAX), truth, "{ctx}");
                        cap_losses += 1;
                    }
                }
            }
        }
        println!(
            "selection oracle: {checked} instances in {case} searches, {skipped} skipped \
             over {LIMIT} candidates, {over_cap} with a PST over 256; {no_realization} \
             selections with no realizable candidate, {cap_losses} optima lost to the \
             256-candidate cap"
        );
        // Pinned, so that a change to enumeration or its cap moves them
        // on purpose.
        assert_eq!(
            (skipped, over_cap, no_realization, cap_losses),
            (63, 208, 0, 64),
            "(skipped, over the cap, no realizable candidate, cap losses)"
        );
    }

    #[test]
    fn walk_enumerates_like_the_list_then_realize_reference_at_every_cap() {
        let mut rng = Mix(0xca_95e7);
        let mut scratch = SearchScratch::new();
        let (mut compared, mut capped, mut blocked) = (0, 0, 0);
        for case in 0..240 {
            let (g, a, b) = if case % 2 == 0 {
                random_grid(&mut rng)
            } else {
                staircase_grid(&mut rng)
            };
            let window = if rng.below(4) == 0 {
                SearchWindow::full(&g)
            } else {
                SearchWindow::around(&g, a, b, rng.below(8))
            };
            let out = search_min_corner_paths(&g, 1, a, b, &window, &mut scratch);
            let terminals: Vec<(usize, usize)> = (0..1 + rng.below(60))
                .map(|_| (rng.below(g.nv()), rng.below(g.nh())))
                .collect();
            let (t1, t2) = (g.point(a.0, a.1), g.point(b.0, b.1));
            let key = |c: CandidatePath| (c.tracks, c.points, c.corners, c.cost.to_bits());
            for weights in [CostWeights::default(), CostWeights::dense()] {
                let ev = CostEvaluator::new(&g, &terminals, weights, 10);
                for pst in [&out.from_v, &out.from_h] {
                    if pst.corners.is_none() {
                        continue;
                    }
                    for cap in [1, 3, 16, 256] {
                        let walk = enumerate_paths(&g, 1, pst, t1, t2, &ev, cap);
                        let reference = enumerate_paths_reference(&g, 1, pst, t1, t2, &ev, cap);
                        let ctx = format!("case {case}, {weights:?}, cap {cap}");
                        assert_eq!(
                            walk.into_iter().map(key).collect::<Vec<_>>(),
                            reference.into_iter().map(key).collect::<Vec<_>>(),
                            "{ctx}"
                        );
                        compared += 1;
                    }
                    let all = all_track_sequences(pst, 4000).map_or(0, |s| s.len());
                    let realized = enumerate_paths(&g, 1, pst, t1, t2, &ev, usize::MAX).len();
                    capped += usize::from(realized > 16);
                    blocked += usize::from(all > realized);
                }
                // The selector is the first minimum over both PSTs' lists.
                let mut reference: Option<CandidatePath> = None;
                for pst in [&out.from_v, &out.from_h] {
                    if out.corners.is_none() || pst.corners != out.corners {
                        continue;
                    }
                    for c in enumerate_paths_reference(&g, 1, pst, t1, t2, &ev, 256) {
                        if reference
                            .as_ref()
                            .is_none_or(|r| c.cost.total_cmp(&r.cost).is_lt())
                        {
                            reference = Some(c);
                        }
                    }
                }
                assert_eq!(
                    select_best_path(&g, 1, &out, t1, t2, &ev).map(key),
                    reference.map(key),
                    "case {case}, {weights:?}"
                );
            }
        }
        println!(
            "walk vs reference: {compared} capped enumerations, {capped} PSTs over 16 \
             realized candidates, {blocked} with blocked sequences"
        );
        // The instances must exercise the cap and blocked recombinations.
        assert!(
            compared >= 2000 && capped >= 100 && blocked >= 100,
            "{compared} compared, {capped} over a cap of 16, {blocked} with blocked sequences"
        );
    }

    #[test]
    fn windowed_dup_terminals_select_the_same_path_bit_for_bit() {
        let mut rng = Mix(0xd0_9e57);
        let mut scratch = SearchScratch::new();
        let (mut compared, mut trimmed) = (0, 0);
        for case in 0..300 {
            let (g, a, b) = if case % 2 == 0 {
                random_grid(&mut rng)
            } else {
                staircase_grid(&mut rng)
            };
            let window = if rng.below(4) == 0 {
                SearchWindow::full(&g)
            } else {
                SearchWindow::around(&g, a, b, rng.below(8))
            };
            let out = search_min_corner_paths(&g, 1, a, b, &window, &mut scratch);
            // Unrouted terminals anywhere on the die, in a random order.
            let all: Vec<(usize, usize)> = (0..1 + rng.below(120))
                .map(|_| (rng.below(g.nv()), rng.below(g.nh())))
                .collect();
            let (t1, t2) = (g.point(a.0, a.1), g.point(b.0, b.1));
            let wide = CostWeights {
                radius: 6,
                ..CostWeights::dense()
            };
            for weights in [CostWeights::default(), CostWeights::dense(), wide] {
                let mut near = Vec::new();
                terminals_near_window(&window, weights.radius, all.iter().copied(), &mut near);
                let pick = |terminals: &[(usize, usize)]| {
                    let ev = CostEvaluator::new(&g, terminals, weights, 10);
                    select_best_path(&g, 1, &out, t1, t2, &ev)
                        .map(|p| (p.tracks, p.points, p.cost.to_bits()))
                };
                assert_eq!(pick(&near), pick(&all), "case {case}, {weights:?}");
                compared += usize::from(out.corners.is_some());
                trimmed += usize::from(out.corners.is_some() && near.len() < all.len());
            }
        }
        assert!(
            compared >= 300 && trimmed >= 150,
            "{compared} compared, {trimmed} trimmed"
        );
    }
}
