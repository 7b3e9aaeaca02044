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
//! The graph is not stored: it is a view of the [`GridModel`]. A vertex
//! is a track, one per physical track as in the paper, and the edge at
//! intersection `(i, j)` exists for a net when
//! [`GridModel::corner_usable`] holds there — the cell is passable for
//! the net on both planes, since a corner joins a metal3 run to a metal4
//! run with a via. The search ([`crate::mbfs`]) reads the edges of a
//! whole track at once from [`GridModel::corner_free_word`] and follows
//! a track only along its maximal passable run through the point where
//! it was reached ([`GridModel::free_run`]).

use ocr_grid::GridModel;

/// Renders the graph's edges for `net` as text: one line per horizontal
/// track listing the vertical tracks it shares a usable edge with (the
/// textual equivalent of the paper's Figure 1). Tracks are labelled
/// 1-based, `h1`.. and `v1`.., as the paper and its path notation do.
pub fn render_adjacency(grid: &GridModel, net: u32) -> String {
    let mut s = String::new();
    for j in 0..grid.nh() {
        s.push_str(&format!("h{}:", j + 1));
        for i in 0..grid.nv() {
            if grid.corner_usable(net, i, j) {
                s.push_str(&format!(" v{}", i + 1));
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Dir, Interval, Rect};
    use ocr_grid::TrackSet;

    fn grid5() -> GridModel {
        GridModel::new(
            Rect::new(0, 0, 40, 40),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
            TrackSet::from_pitch(Interval::new(0, 40), 10),
        )
    }

    /// The line of 0-based horizontal track `j` (labelled `h{j+1}`).
    fn row(text: &str, j: usize) -> &str {
        text.lines().nth(j).unwrap()
    }

    #[test]
    fn empty_grid_has_all_edges() {
        let g = grid5();
        let text = render_adjacency(&g, 0);
        assert_eq!(text.lines().count(), 5);
        assert_eq!(text.matches(" v").count(), 25);
        assert_eq!(row(&text, 2), "h3: v1 v2 v3 v4 v5");
        // Each track is a single passable run.
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 2, 0, 4), Some((0, 4)));
    }

    #[test]
    fn obstacle_splits_track_into_segments() {
        let mut g = grid5();
        // Blocks (2,2) inside plus (1,2) and (3,2) via crossing segments.
        g.block_rect(&Rect::new(15, 15, 25, 25), Dir::Horizontal);
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 0, 0, 4), Some((0, 0)));
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 4, 0, 4), Some((4, 4)));
        assert_eq!(g.free_run(0, Dir::Horizontal, 2, 2, 0, 4), None);
        // Vertical plane unaffected.
        assert_eq!(g.free_run(0, Dir::Vertical, 2, 2, 0, 4), Some((0, 4)));
        // The corners on the blocked cells lose their edges.
        let text = render_adjacency(&g, 0);
        assert_eq!(row(&text, 2), "h3: v1 v5");
        assert_eq!(row(&text, 1), "h2: v1 v2 v3 v4 v5");
        assert_eq!(text.matches(" v").count(), 22);
    }

    #[test]
    fn own_wiring_is_passable() {
        let mut g = grid5();
        g.occupy_run(Dir::Horizontal, 2, 0, 4, 7);
        assert_eq!(g.free_run(7, Dir::Horizontal, 2, 2, 0, 4), Some((0, 4)));
        assert_eq!(g.free_run(8, Dir::Horizontal, 2, 2, 0, 4), None);
        assert_eq!(row(&render_adjacency(&g, 7), 2), "h3: v1 v2 v3 v4 v5");
        assert_eq!(row(&render_adjacency(&g, 8), 2), "h3:");
    }

    #[test]
    fn render_lists_usable_edges() {
        let mut g = grid5();
        // Kills the vertical plane of columns 1–3 entirely (every cell
        // there is inside or adjacent to an interior-crossing segment).
        g.block_rect(&Rect::new(5, 5, 35, 35), Dir::Vertical);
        let text = render_adjacency(&g, 0);
        assert!(text.contains("h1: v1 v5"));
        assert!(text.contains("h3: v1 v5"));
    }
}
