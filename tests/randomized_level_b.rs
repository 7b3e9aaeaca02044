//! Randomized tests on the Level B over-cell router, driven by the
//! in-tree deterministic PRNG (fixed seeds, reproducible failures).

use overcell_router::core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use overcell_router::core::steiner::rectilinear_mst_length;
use overcell_router::core::{config::LevelBConfig, level_b::LevelBRouter};
use overcell_router::gen::rng::Rng;
use overcell_router::geom::{Layer, LayerSet, Point, Rect};
use overcell_router::grid::{GridModel, TrackSet};
use overcell_router::maze::{route_maze, MazeOptions};
use overcell_router::netlist::{Layout, NetClass, Obstacle};
use overcell_router::verify::verify;

const CASES: usize = 48;

fn grid_point(rng: &mut Rng) -> Point {
    Point::new(rng.gen_range(0i64..=20) * 10, rng.gen_range(0i64..=20) * 10)
}

fn layout_with(nets: Vec<Vec<Point>>, obstacles: Vec<Rect>) -> Layout {
    let mut layout = Layout::new(Rect::new(0, 0, 200, 200));
    for (k, pins) in nets.into_iter().enumerate() {
        let n = layout.add_net(format!("n{k}"), NetClass::Signal);
        for p in pins {
            layout.add_pin(n, None, p, Layer::Metal2);
        }
    }
    for r in obstacles {
        layout.add_obstacle(Obstacle::new(r, LayerSet::level_b()));
    }
    layout
}

/// Every successfully routed design validates: connected, no shorts,
/// obstacles respected.
#[test]
fn routed_designs_validate() {
    let mut rng = Rng::seed_from_u64(0x1b01);
    for _ in 0..CASES {
        let net_count = rng.gen_range(1usize..6);
        let raw: Vec<Vec<Point>> = (0..net_count)
            .map(|_| {
                let pins = rng.gen_range(2usize..5);
                (0..pins).map(|_| grid_point(&mut rng)).collect()
            })
            .collect();
        let ob_x = rng.gen_range(0i64..15);
        let ob_y = rng.gen_range(0i64..15);
        // Deduplicate pins across nets (terminal cells are exclusive).
        let mut seen = std::collections::HashSet::new();
        let mut nets: Vec<Vec<Point>> = Vec::new();
        for pins in raw {
            let uniq: Vec<Point> = pins.into_iter().filter(|p| seen.insert(*p)).collect();
            if uniq.len() >= 2 {
                nets.push(uniq);
            }
        }
        if nets.is_empty() {
            continue;
        }
        // An obstacle placed off-grid-corner so it can't seal terminals
        // (strict-interior blocking; terminals sit on track crossings).
        let ob = Rect::new(ob_x * 10 + 5, ob_y * 10 + 5, ob_x * 10 + 35, ob_y * 10 + 35);
        let layout = layout_with(nets, vec![ob]);
        let ids: Vec<_> = layout.net_ids().collect();
        let mut router = LevelBRouter::new(&layout, &ids, LevelBConfig::default()).expect("router");
        let res = router.route_all().expect("route_all");
        // Failures are allowed (terminals may be unlucky) when declared,
        // but whatever routed must be perfectly valid.
        let report = verify(&layout, &res.design);
        assert!(report.is_clean(), "{report}");
    }
}

/// On an empty grid the MBFS needs at most one corner between any
/// two terminals (zero when aligned) — min-corner optimality in the
/// trivial case.
#[test]
fn empty_grid_needs_at_most_one_corner() {
    let mut rng = Rng::seed_from_u64(0x1b02);
    let mut scratch = SearchScratch::new();
    for _ in 0..CASES {
        let (a, b) = (grid_point(&mut rng), grid_point(&mut rng));
        if a == b {
            continue;
        }
        let grid = GridModel::new(
            Rect::new(0, 0, 200, 200),
            TrackSet::from_pitch(overcell_router::geom::Interval::new(0, 200), 10),
            TrackSet::from_pitch(overcell_router::geom::Interval::new(0, 200), 10),
        );
        let w = SearchWindow::full(&grid);
        let ai = grid.snap(a).expect("grid");
        let bi = grid.snap(b).expect("grid");
        let out = search_min_corner_paths(&grid, 0, ai, bi, &w, &mut scratch);
        let aligned = a.x == b.x || a.y == b.y;
        assert_eq!(out.corners, Some(usize::from(!aligned)));
    }
}

/// When the MBFS finds a path on an obstructed grid, its corner
/// count equals the minimum plane-change count found by the maze
/// router with a dominant via cost (the maze is complete, so it
/// certifies the minimum).
#[test]
fn mbfs_corner_count_is_minimal_when_it_succeeds() {
    let mut rng = Rng::seed_from_u64(0x1b03);
    let mut scratch = SearchScratch::new();
    for _ in 0..CASES {
        let (a, b) = (grid_point(&mut rng), grid_point(&mut rng));
        if a == b {
            continue;
        }
        let ox = rng.gen_range(0i64..16);
        let oy = rng.gen_range(0i64..16);
        let ow = rng.gen_range(1i64..5);
        let oh = rng.gen_range(1i64..5);
        let mut grid = GridModel::new(
            Rect::new(0, 0, 200, 200),
            TrackSet::from_pitch(overcell_router::geom::Interval::new(0, 200), 10),
            TrackSet::from_pitch(overcell_router::geom::Interval::new(0, 200), 10),
        );
        let ob = Rect::new(
            ox * 10 - 5,
            oy * 10 - 5,
            (ox + ow) * 10 + 5,
            (oy + oh) * 10 + 5,
        );
        for dir in [
            overcell_router::geom::Dir::Horizontal,
            overcell_router::geom::Dir::Vertical,
        ] {
            grid.block_rect(&ob, dir);
        }
        let Some(ai) = grid.snap(a) else { continue };
        let Some(bi) = grid.snap(b) else { continue };
        // Terminals inside the obstacle are unroutable; skip.
        if !(grid.corner_usable(0, ai.0, ai.1) && grid.corner_usable(0, bi.0, bi.1)) {
            continue;
        }
        let w = SearchWindow::full(&grid);
        let out = search_min_corner_paths(&grid, 0, ai, bi, &w, &mut scratch);
        let mut maze_grid = grid.clone();
        let maze = route_maze(
            &mut maze_grid,
            0,
            a,
            b,
            MazeOptions {
                via_cost: 100_000,
                astar: false,
            },
        );
        match (out.corners, maze) {
            (Some(c), Ok(path)) => {
                assert_eq!(
                    c,
                    path.route.vias.len(),
                    "MBFS corners {} vs certified minimum {}",
                    c,
                    path.route.vias.len()
                );
            }
            (Some(_), Err(_)) => panic!("MBFS found a path the maze missed"),
            // MBFS may fail where the maze succeeds (incompleteness) —
            // that is what the maze fallback is for.
            (None, _) => {}
        }
    }
}

/// The routed Steiner tree never exceeds the terminal-only MST on an
/// empty grid.
#[test]
fn steiner_never_exceeds_terminal_mst() {
    let mut rng = Rng::seed_from_u64(0x1b04);
    for _ in 0..CASES {
        let count = rng.gen_range(3usize..7);
        let mut pins: Vec<Point> = (0..count).map(|_| grid_point(&mut rng)).collect();
        pins.sort();
        pins.dedup();
        if pins.len() < 3 {
            continue;
        }
        let layout = layout_with(vec![pins.clone()], vec![]);
        let ids: Vec<_> = layout.net_ids().collect();
        let mut router = LevelBRouter::new(&layout, &ids, LevelBConfig::default()).expect("router");
        let res = router.route_all().expect("route_all");
        if !res.design.failed.is_empty() {
            continue;
        }
        let wl = res.design.route(ids[0]).expect("routed").wire_length();
        let mst = rectilinear_mst_length(&pins);
        assert!(wl <= mst, "steiner {wl} exceeds terminal MST {mst}");
    }
}
