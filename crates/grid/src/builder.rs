//! Building the Level B grid from a layout.

use crate::{GridModel, TrackSet};
use ocr_geom::{Dir, Layer};
use ocr_netlist::{Layout, NetId};

/// Builds the Level B over-cell routing grid for `layout` and its Level B
/// nets.
///
/// * Uniform tracks at the design rules' over-cell pitch span the entire
///   die — over-cell **and** between-cell areas, which is the point of
///   the methodology.
/// * Every terminal of a Level B net gets a vertical and a horizontal
///   track through its position (paper §3: "the assignment of a pair of
///   horizontal and vertical tracks to each net terminal"), so spacing is
///   non-uniform in general.
/// * Obstacles blocking metal3 are rasterized into the horizontal plane,
///   metal4 blockers into the vertical plane.
///
/// ```
/// use ocr_geom::{Layer, Point, Rect};
/// use ocr_netlist::{Layout, NetClass};
/// use ocr_grid::build_grid;
///
/// let mut layout = Layout::new(Rect::new(0, 0, 100, 100));
/// let n = layout.add_net("n", NetClass::Signal);
/// layout.add_pin(n, None, Point::new(13, 27), Layer::Metal2);
/// layout.add_pin(n, None, Point::new(88, 90), Layer::Metal2);
/// let grid = build_grid(&layout, &[n]);
/// // Terminal coordinates are tracks:
/// assert!(grid.v_tracks().index_of(13).is_some());
/// assert!(grid.h_tracks().index_of(27).is_some());
/// ```
///
/// # Panics
///
/// Panics if the over-cell pitch is not positive.
pub fn build_grid(layout: &Layout, level_b_nets: &[NetId]) -> GridModel {
    let region = layout.die;
    let pitch = layout.rules.over_cell_pitch();
    let mut h = TrackSet::from_pitch(region.span(Dir::Vertical), pitch);
    let mut v = TrackSet::from_pitch(region.span(Dir::Horizontal), pitch);

    for &net in level_b_nets {
        for &pin in &layout.net(net).pins {
            let p = layout.pin(pin).position;
            if region.contains(p) {
                v.ensure(p.x);
                h.ensure(p.y);
            }
        }
    }

    let mut grid = GridModel::new(region, h, v);
    for ob in &layout.obstacles {
        if ob.blocks(Layer::Metal3) {
            grid.block_rect(&ob.rect, Dir::Horizontal);
        }
        if ob.blocks(Layer::Metal4) {
            grid.block_rect(&ob.rect, Dir::Vertical);
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellState;
    use ocr_geom::{LayerSet, Point, Rect};
    use ocr_netlist::{DesignRules, LayerRules, NetClass, Obstacle};

    fn layout_with_net() -> (Layout, NetId) {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        let n = l.add_net("n", NetClass::Signal);
        l.add_pin(n, None, Point::new(13, 27), Layer::Metal2);
        l.add_pin(n, None, Point::new(88, 90), Layer::Metal2);
        (l, n)
    }

    /// Uniform rules whose over-cell pitch is 10.
    fn pitch_10_rules() -> DesignRules {
        DesignRules::uniform(LayerRules {
            wire_width: 5,
            wire_spacing: 5,
            via_size: 5,
        })
    }

    #[test]
    fn terminal_tracks_are_inserted() {
        let (l, n) = layout_with_net();
        let g = build_grid(&l, &[n]);
        assert!(g.v_tracks().index_of(13).is_some());
        assert!(g.v_tracks().index_of(88).is_some());
        assert!(g.h_tracks().index_of(27).is_some());
        assert!(g.h_tracks().index_of(90).is_some());
    }

    #[test]
    fn non_level_b_net_terminals_are_not_inserted() {
        let (mut l, n) = layout_with_net();
        let other = l.add_net("a", NetClass::Critical);
        l.add_pin(other, None, Point::new(51, 53), Layer::Metal1);
        l.add_pin(other, None, Point::new(57, 59), Layer::Metal1);
        l.rules = pitch_10_rules();
        let g = build_grid(&l, &[n]);
        assert!(g.v_tracks().index_of(51).is_none());
        assert!(g.h_tracks().index_of(53).is_none());
    }

    #[test]
    fn obstacles_block_matching_planes() {
        let (mut l, n) = layout_with_net();
        l.add_obstacle(Obstacle::new(
            Rect::new(40, 40, 60, 60),
            LayerSet::single(Layer::Metal3),
        ));
        l.rules = pitch_10_rules();
        let g = build_grid(&l, &[n]);
        let (i, j) = g.snap(Point::new(50, 50)).expect("50 on pitch");
        assert_eq!(g.state(Dir::Horizontal, i, j), CellState::Blocked);
        assert_eq!(g.state(Dir::Vertical, i, j), CellState::Free);
    }
}
