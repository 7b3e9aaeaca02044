//! Shared helpers for the binaries that regenerate the paper's tables
//! and figures.
//!
//! Binaries (one per table/figure — see DESIGN.md §5):
//!
//! * `table1` — benchmark statistics (paper Table 1);
//! * `table2` — % reductions of the proposed 4-layer flow vs the
//!   2-layer channel flow (paper Table 2);
//! * `table3` — 4-layer channel area (analytic 50% model and the real
//!   HV+HV router) vs the 4-layer over-cell flow (paper Table 3);
//! * `fig1` — the Level B instance + Track Intersection Graph walk-through
//!   (paper Figure 1);
//! * `fig2` — the Path Selection Trees of the same instance (Figure 2);
//! * `fig3` — SVG of the ami33-equivalent Level B routing (Figure 3);
//! * `mbfs_vs_maze` — search nodes expanded by the TIG search vs the
//!   maze routers (§3);
//! * `scaling` — Level B work vs grid size and net count (§3.4), and
//!   Steiner quality vs fanout (§3.3);
//! * `budget_sweep`, `ablation`, `crosstalk`, `ordering_portfolio` and
//!   `stress` — the §5 and §1 claims, the design-choice ablations, the
//!   ordering strategies and the scale-ups.
//!
//! Every binary but `fig3` prints deterministic text, pinned byte for
//! byte in `golden/<name>.txt`. Wall-clock timing is perfbench's job.

pub use ocr_gen::rng;

use ocr_core::{run_analytic_four_layer_estimate, FlowKind, FlowResult};
use ocr_gen::{GeneratedChip, Rng};
use ocr_geom::{Layer, Point, Rect};
use ocr_netlist::{Layout, NetClass, NetId, RouteMetrics};
use std::collections::HashSet;

/// The three flows' results on one chip.
#[derive(Debug)]
pub struct SuiteRun {
    /// The chip the flows ran on.
    pub name: String,
    /// Proposed over-cell flow result.
    pub over_cell: FlowResult,
    /// Two-layer all-channel baseline result.
    pub two_layer: FlowResult,
    /// Four-layer all-channel comparator result (`None` when skipped).
    pub four_layer: Option<FlowResult>,
    /// The paper's analytic 4-layer channel area estimate.
    pub analytic_four_layer_area: i128,
}

/// Runs the proposed flow and baselines on a generated chip, asserting
/// a clean oracle report for each (no table is reported off an invalid
/// design).
///
/// # Panics
///
/// Panics if any flow fails to route or produces an invalid design —
/// benchmark tables must never be computed from broken geometry.
pub fn run_all_flows(chip: &GeneratedChip, with_four_layer: bool) -> SuiteRun {
    // The flows are independent, so they fan out across the ocr-exec
    // pool; results come back in kind order regardless of worker count.
    let kinds: Vec<FlowKind> = if with_four_layer {
        vec![FlowKind::OverCell, FlowKind::Channel2, FlowKind::Channel4]
    } else {
        vec![FlowKind::OverCell, FlowKind::Channel2]
    };
    let results = ocr_exec::parallel_map(&kinds, |&kind| {
        kind.build().run(&chip.layout, &chip.placement)
    });
    let mut results: Vec<FlowResult> = kinds
        .iter()
        .zip(results)
        .map(|(kind, res)| {
            let r = res.unwrap_or_else(|e| panic!("{}: {kind} flow failed: {e}", chip.spec.name));
            assert_valid(&chip.spec.name, kind.name(), &r);
            r
        })
        .collect();
    let four_layer = with_four_layer.then(|| results.pop().expect("channel4 result"));
    let two_layer = results.pop().expect("channel2 result");
    let over_cell = results.pop().expect("overcell result");

    let analytic = run_analytic_four_layer_estimate(&two_layer, &chip.layout);
    SuiteRun {
        name: chip.spec.name.clone(),
        over_cell,
        two_layer,
        four_layer,
        analytic_four_layer_area: analytic,
    }
}

fn assert_valid(chip: &str, flow: &str, result: &FlowResult) {
    assert!(
        result.design.failed.is_empty(),
        "{chip}/{flow}: {} nets failed to route",
        result.design.failed.len()
    );
    assert_clean(&format!("{chip}/{flow}"), result);
}

/// Panics unless the `ocr-verify` oracle finds `result` clean; `what`
/// names the run in the panic message.
pub fn assert_clean(what: &str, result: &FlowResult) {
    let report = ocr_verify::verify(&result.layout, &result.design);
    assert!(report.is_clean(), "{what}: {report}");
}

/// Formats one Table 2 row.
pub fn table2_row(name: &str, over: &RouteMetrics, base: &RouteMetrics) -> String {
    let red = over.reductions_vs(base);
    format!(
        "{name:<8} {:>10.1}% {:>10.1}% {:>10.1}%",
        red.layout_area, red.wire_length, red.vias
    )
}

/// Draws a point on the 10-unit lattice of `0..=side` not in `used`.
pub fn fresh_point(rng: &mut Rng, side: i64, used: &mut HashSet<Point>) -> Point {
    loop {
        let p = Point::new(
            rng.gen_range(0..=side / 10) * 10,
            rng.gen_range(0..=side / 10) * 10,
        );
        if used.insert(p) {
            return p;
        }
    }
}

/// A layout with `nets` random two-terminal nets on a `side`×`side` die
/// with no cells: a bare Level B instance (the `scaling` work sweeps and
/// the `ablation` congestion table).
pub fn random_layout(side: i64, nets: usize, seed: u64) -> (Layout, Vec<NetId>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut layout = Layout::new(Rect::new(0, 0, side, side));
    let mut used = HashSet::new();
    let ids = (0..nets)
        .map(|k| {
            let net = layout.add_net(format!("n{k}"), NetClass::Signal);
            for _ in 0..2 {
                let p = fresh_point(&mut rng, side, &mut used);
                layout.add_pin(net, None, p, Layer::Metal2);
            }
            net
        })
        .collect();
    (layout, ids)
}

/// The paper's Figure 1 instance (reconstructed): a 6×4-track Level B
/// region with net B's terminals at `(v2, h2)` and `(v6, h4)`, nets A
/// and C already connected (vertical wires on the outer columns) and an
/// obstacle `O1` splitting the middle column. The exact figure geometry
/// did not survive the source scan; this reconstruction produces the
/// same search outcome the text describes: one 1-corner path
/// `(v2, h4, v6)` from the vertical-track MBFS, and 2-corner paths from
/// the horizontal-track MBFS.
pub mod fig_instance {
    use ocr_geom::{Dir, Interval, Point, Rect};
    use ocr_grid::{CellState, GridModel, TrackSet};

    /// Net id used for net B (the net being routed).
    pub const NET_B: u32 = 1;

    /// Builds the grid with nets A and C and the obstacle pre-marked,
    /// and net B's terminals reserved. Returns
    /// `(grid, term1, term2)` with terminals as grid indices.
    pub fn build() -> (GridModel, (usize, usize), (usize, usize)) {
        let mut grid = GridModel::new(
            Rect::new(0, 0, 50, 30),
            TrackSet::from_pitch(Interval::new(0, 30), 10), // h1..h4
            TrackSet::from_pitch(Interval::new(0, 50), 10), // v1..v6
        );
        // Net A: vertical wire on v1 (x = 0), full height.
        for j in 0..4 {
            grid.set_state(Dir::Vertical, 0, j, CellState::Used(100));
        }
        // Net C: vertical wire on v6 (x = 50), lower three tracks.
        for j in 0..3 {
            grid.set_state(Dir::Vertical, 5, j, CellState::Used(101));
        }
        // Obstacle O1: blocks both planes at (v4, h3).
        grid.set_state(Dir::Horizontal, 3, 2, CellState::Blocked);
        grid.set_state(Dir::Vertical, 3, 2, CellState::Blocked);
        // Net B terminals: (v2, h2) and (v6, h4), reserved on both planes.
        let term1 = (1usize, 1usize);
        let term2 = (5usize, 3usize);
        for &(i, j) in &[term1, term2] {
            grid.set_state(Dir::Horizontal, i, j, CellState::Used(NET_B));
            grid.set_state(Dir::Vertical, i, j, CellState::Used(NET_B));
        }
        (grid, term1, term2)
    }

    /// The physical terminal points.
    pub fn terminal_points(grid: &GridModel, t: (usize, usize)) -> Point {
        grid.point(t.0, t.1)
    }
}

#[cfg(test)]
mod fig_tests {
    use super::fig_instance::{build, NET_B};
    use ocr_core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
    use ocr_geom::Dir;

    #[test]
    fn figure1_search_matches_the_paper() {
        let (grid, t1, t2) = build();
        let w = SearchWindow::full(&grid);
        let mut scratch = SearchScratch::new();
        let out = search_min_corner_paths(&grid, NET_B, t1, t2, &w, &mut scratch);
        // The global minimum is one corner, achieved by the search that
        // starts from terminal 1's *vertical* track (paper: the path
        // (v2, h4, v6) "requires only one corner").
        assert_eq!(out.corners, Some(1));
        assert_eq!(out.from_v.corners, Some(1));
        // The horizontal-track search needs two corners.
        assert_eq!(out.from_h.corners, Some(2));
        // The 1-corner path's target is the horizontal track h4 (j = 3).
        assert_eq!(out.from_v.targets, vec![(Dir::Horizontal, 3)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_gen::random::small_random;

    #[test]
    fn all_flows_run_on_a_small_chip() {
        let chip = small_random(6, 2, 3, 10, 7);
        let run = run_all_flows(&chip, true);
        assert!(run.over_cell.metrics.routed_nets >= 13);
        assert!(run.two_layer.metrics.routed_nets >= 13);
        assert!(run.analytic_four_layer_area > 0);
    }
}
