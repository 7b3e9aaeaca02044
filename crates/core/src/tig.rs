//! The Track Intersection Graph.
//!
//! Paper §3.1: "The solution space for level B routing is represented by
//! an undirected bipartite graph G = (V, E) called Track Intersection
//! Graph. The set of vertices V consists of two mutually exclusive
//! subsets V_v and V_h, where each v_i ∈ V_v represents a vertical
//! routing track and each v_j ∈ V_h represents an horizontal track. The
//! edges e = (v_i, v_j) ∈ E correspond to the intersection of a vertical
//! with an horizontal track that can be used for routing."
//!
//! **Refinement (documented in DESIGN.md):** with obstacles and already
//! routed wires, a whole track is not uniformly usable. [`Tig`] therefore
//! exposes tracks as *maximal free runs* — the contiguous stretch of a
//! track passable around a given intersection. With an empty grid each
//! track is a single run and the structure degenerates to the paper's.

use ocr_geom::Dir;
use ocr_grid::{CellState, GridModel};
use std::fmt;

/// A view of the routing grid as the paper's Track Intersection Graph.
///
/// Vertices are `(direction, track index)` pairs; an edge exists at
/// intersection `(i, j)` when the corner there is usable — i.e. **both**
/// planes are passable at the cell, since a corner joins a metal3 run to
/// a metal4 run with a via.
#[derive(Debug)]
pub struct Tig<'g> {
    grid: &'g GridModel,
}

impl<'g> Tig<'g> {
    /// Wraps a grid model.
    pub fn new(grid: &'g GridModel) -> Self {
        Tig { grid }
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &GridModel {
        self.grid
    }

    /// Number of vertices `(|V_h|, |V_v|)`.
    pub fn vertex_counts(&self) -> (usize, usize) {
        (self.grid.nh(), self.grid.nv())
    }

    /// `true` if `cell` is passable for `net` on plane `dir`.
    #[inline]
    pub fn passable(&self, net: u32, dir: Dir, i: usize, j: usize) -> bool {
        match self.grid.state(dir, i, j) {
            CellState::Free => true,
            CellState::Used(n) => n == net,
            CellState::Blocked => false,
        }
    }

    /// `true` if the intersection `(i, j)` is a usable TIG edge for
    /// `net`: a corner (metal3↔metal4 via) can be placed there.
    #[inline]
    pub fn edge_usable(&self, net: u32, i: usize, j: usize) -> bool {
        self.passable(net, Dir::Horizontal, i, j) && self.passable(net, Dir::Vertical, i, j)
    }

    /// The maximal free run for `net` along track `track` (running in
    /// `dir`) through cross-index `through`, clipped to the closed index
    /// window `[win_lo, win_hi]`. Returns `None` if the through-cell
    /// itself is impassable.
    ///
    /// For a horizontal track `j = track`, cross-indices are vertical
    /// track indices `i`; vice versa for vertical tracks. Expansion is
    /// delegated to the grid's word-packed occupancy bitset
    /// ([`GridModel::free_run`]), which scans 64 cells per word instead
    /// of one enum match per cell.
    #[inline]
    pub fn free_run(
        &self,
        net: u32,
        dir: Dir,
        track: usize,
        through: usize,
        win_lo: usize,
        win_hi: usize,
    ) -> Option<(usize, usize)> {
        self.grid.free_run(net, dir, track, through, win_lo, win_hi)
    }

    /// Enumerates all maximal free runs of a track for `net` within the
    /// full grid (used by analysis, figure printing and tests).
    pub fn segments(&self, net: u32, dir: Dir, track: usize) -> Vec<(usize, usize)> {
        let n = match dir {
            Dir::Horizontal => self.grid.nv(),
            Dir::Vertical => self.grid.nh(),
        };
        let mut out = Vec::new();
        let mut k = 0;
        while k < n {
            match self.free_run(net, dir, track, k, 0, n - 1) {
                Some((lo, hi)) => {
                    out.push((lo, hi));
                    k = hi + 1;
                }
                None => k += 1,
            }
        }
        out
    }

    /// Total number of usable edges for `net` (an |E| census for
    /// reporting and the Figure 1 printer).
    pub fn edge_count(&self, net: u32) -> usize {
        let mut n = 0;
        for j in 0..self.grid.nh() {
            for i in 0..self.grid.nv() {
                if self.edge_usable(net, i, j) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Renders the TIG adjacency as text: one line per horizontal track
    /// listing the vertical tracks it shares a usable edge with
    /// (the textual equivalent of the paper's Figure 1).
    pub fn render_adjacency(&self, net: u32) -> String {
        let mut s = String::new();
        for j in 0..self.grid.nh() {
            s.push_str(&format!("h{j}:"));
            for i in 0..self.grid.nv() {
                if self.edge_usable(net, i, j) {
                    s.push_str(&format!(" v{i}"));
                }
            }
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Tig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, v) = self.vertex_counts();
        write!(f, "TIG: |V_h|={h}, |V_v|={v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::TrackSet;

    fn grid5() -> GridModel {
        GridModel::new(
            Rect::new(0, 0, 40, 40),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
        )
    }

    #[test]
    fn empty_grid_has_all_edges() {
        let g = grid5();
        let tig = Tig::new(&g);
        assert_eq!(tig.edge_count(0), 25);
        assert_eq!(tig.segments(0, Dir::Horizontal, 2), vec![(0, 4)]);
    }

    #[test]
    fn obstacle_splits_track_into_segments() {
        let mut g = grid5();
        // Blocks (2,2) inside plus (1,2) and (3,2) via crossing segments.
        g.block_rect(&Rect::new(15, 15, 25, 25), Dir::Horizontal);
        let tig = Tig::new(&g);
        assert_eq!(tig.segments(0, Dir::Horizontal, 2), vec![(0, 0), (4, 4)]);
        // Vertical plane unaffected.
        assert_eq!(tig.segments(0, Dir::Vertical, 2), vec![(0, 4)]);
        // The corner at (2,2) is unusable (H plane blocked).
        assert!(!tig.edge_usable(0, 2, 2));
    }

    #[test]
    fn own_wiring_is_passable() {
        let mut g = grid5();
        g.occupy_run(Dir::Horizontal, 2, 0, 4, 7);
        let tig = Tig::new(&g);
        assert_eq!(tig.segments(7, Dir::Horizontal, 2), vec![(0, 4)]);
        assert_eq!(tig.segments(8, Dir::Horizontal, 2).len(), 0);
    }

    #[test]
    fn free_run_respects_window() {
        let g = grid5();
        let tig = Tig::new(&g);
        assert_eq!(tig.free_run(0, Dir::Horizontal, 2, 2, 1, 3), Some((1, 3)));
        assert_eq!(tig.free_run(0, Dir::Horizontal, 2, 0, 1, 3), None);
    }

    #[test]
    fn render_lists_usable_edges() {
        let mut g = grid5();
        // Kills the vertical plane of columns 1–3 entirely (every cell
        // there is inside or adjacent to an interior-crossing segment).
        g.block_rect(&Rect::new(5, 5, 35, 35), Dir::Vertical);
        let tig = Tig::new(&g);
        let text = tig.render_adjacency(0);
        assert!(text.contains("h0: v0 v4"));
        assert!(text.contains("h2: v0 v4"));
    }
}
