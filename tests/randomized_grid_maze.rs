//! Randomized tests on the routing grid and maze router, driven by the
//! in-tree deterministic PRNG (fixed seeds, reproducible failures).

use overcell_router::gen::rng::Rng;
use overcell_router::geom::{Dir, Interval, Point, Rect};
use overcell_router::grid::{CellState, GridModel, TrackSet};
use overcell_router::maze::{find_soft_path, route_maze, MazeOptions};
use std::collections::BTreeSet;

const CASES: usize = 64;

fn grid(n: i64) -> GridModel {
    GridModel::new(
        Rect::new(0, 0, n, n),
        TrackSet::from_pitch(Interval::new(0, n), 10),
        TrackSet::from_pitch(Interval::new(0, n), 10),
    )
}

#[test]
fn occupy_then_query_is_consistent() {
    let mut rng = Rng::seed_from_u64(0x6101);
    for _ in 0..CASES {
        let track = rng.gen_range(0usize..11);
        let lo = rng.gen_range(0usize..11);
        let hi = rng.gen_range(0usize..11);
        let net = rng.gen_range(1u32..50);
        let mut g = grid(100);
        g.occupy_run(Dir::Horizontal, track, lo, hi, net);
        let (a, b) = (lo.min(hi), lo.max(hi));
        for k in 0..11 {
            let expect = if (a..=b).contains(&k) {
                CellState::Used(net)
            } else {
                CellState::Free
            };
            assert_eq!(g.state(Dir::Horizontal, k, track), expect);
            assert_eq!(g.state(Dir::Vertical, k, track), CellState::Free);
        }
        // The owner may re-run; everyone else is blocked on that stretch.
        assert!(g.run_is_free(Dir::Horizontal, track, a, b, net));
        assert!(!g.run_is_free(Dir::Horizontal, track, a, b, net + 1));
    }
}

#[test]
fn trackset_nearest_is_truly_nearest() {
    let mut rng = Rng::seed_from_u64(0x6102);
    for _ in 0..CASES {
        let count = rng.gen_range(1usize..20);
        let offsets: BTreeSet<i64> = (0..count).map(|_| rng.gen_range(0i64..200)).collect();
        let q = rng.gen_range(-50i64..250);
        let ts = TrackSet::from_offsets(offsets.iter().copied().collect());
        let k = ts.nearest(q).expect("non-empty");
        let best = ts
            .offsets()
            .iter()
            .map(|&o| (o - q).abs())
            .min()
            .expect("non-empty");
        assert_eq!((ts.offset(k) - q).abs(), best);
    }
}

#[test]
fn trackset_ensure_inserts_sorted_unique() {
    let mut rng = Rng::seed_from_u64(0x6103);
    for _ in 0..CASES {
        let count = rng.gen_range(0usize..15);
        let offsets: Vec<i64> = (0..count).map(|_| rng.gen_range(0i64..100)).collect();
        let extra = rng.gen_range(0i64..100);
        let mut ts = TrackSet::from_offsets(offsets);
        let before = ts.len();
        let k = ts.ensure(extra);
        assert_eq!(ts.offset(k), extra);
        assert!(ts.len() == before || ts.len() == before + 1);
        let o = ts.offsets();
        assert!(o.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
        // Idempotent.
        assert_eq!(ts.ensure(extra), k);
    }
}

fn random_grid_pair(rng: &mut Rng) -> (Point, Point) {
    loop {
        let a = Point::new(rng.gen_range(0i64..11) * 10, rng.gen_range(0i64..11) * 10);
        let b = Point::new(rng.gen_range(0i64..11) * 10, rng.gen_range(0i64..11) * 10);
        if a != b {
            return (a, b);
        }
    }
}

#[test]
fn maze_path_length_at_least_manhattan() {
    let mut rng = Rng::seed_from_u64(0x6104);
    for _ in 0..CASES {
        let (a, b) = random_grid_pair(&mut rng);
        let mut g = grid(100);
        let p = route_maze(&mut g, 1, a, b, MazeOptions::default()).expect("empty grid routes");
        let direct = overcell_router::geom::manhattan(a, b);
        assert!(p.route.wire_length() >= direct);
        // On an empty grid the wave finds a shortest path exactly.
        assert_eq!(p.route.wire_length(), direct);
        // Monotone path: at most one corner needed.
        assert!(p.route.vias.len() <= 1);
    }
}

#[test]
fn maze_marks_exactly_its_path() {
    let mut rng = Rng::seed_from_u64(0x6105);
    for _ in 0..CASES {
        let (a, b) = random_grid_pair(&mut rng);
        let mut g = grid(100);
        let p = route_maze(&mut g, 9, a, b, MazeOptions::default()).expect("routes");
        let mut used = 0usize;
        for j in 0..g.nh() {
            for i in 0..g.nv() {
                for d in Dir::BOTH {
                    if matches!(g.state(d, i, j), CellState::Used(9)) {
                        used += 1;
                    }
                }
            }
        }
        assert_eq!(used, p.nodes.len());
    }
}

#[test]
fn soft_path_cost_never_below_hard_path_cost() {
    let mut rng = Rng::seed_from_u64(0x6106);
    for _ in 0..CASES {
        let (a, b) = random_grid_pair(&mut rng);
        let track = rng.gen_range(0usize..11);
        let mut g = grid(100);
        // Another net's wire crosses the middle.
        g.occupy_run(Dir::Horizontal, track, 0, 10, 77);
        let hard = route_maze(&mut g.clone(), 1, a, b, MazeOptions::default());
        let via_cost = MazeOptions::default().via_cost;
        let soft = find_soft_path(&g, 1, a, b, via_cost, 1000, |_, _| true);
        if let (Ok(h), Ok(s)) = (hard, soft) {
            // The soft optimum can only be ≤ hard cost (it has more
            // options), and with zero blockers they coincide.
            assert!(s.cost <= h.cost);
            if s.blockers.is_empty() {
                assert_eq!(s.cost, h.cost);
            }
        }
    }
}

#[test]
fn block_rect_matches_crossing_semantics() {
    let mut rng = Rng::seed_from_u64(0x6107);
    for _ in 0..CASES {
        let x0 = rng.gen_range(0i64..80);
        let y0 = rng.gen_range(0i64..80);
        let w = rng.gen_range(1i64..20);
        let h = rng.gen_range(1i64..20);
        let mut g = grid(100);
        let r = Rect::new(x0, y0, x0 + w, y0 + h);
        g.block_rect(&r, Dir::Horizontal);
        // Blocked ⇔ the row crosses the interior AND (the cell is
        // strictly inside, or one of its adjacent along-row segments
        // would cross the interior).
        let crosses = |a: i64, b: i64| a.min(b) < r.x1() && a.max(b) > r.x0();
        for j in 0..g.nh() {
            for i in 0..g.nv() {
                let p = g.point(i, j);
                let row_inside = p.y > r.y0() && p.y < r.y1();
                let inside = p.x > r.x0() && p.x < r.x1();
                let left = i > 0 && crosses(g.point(i - 1, j).x, p.x);
                let right = i + 1 < g.nv() && crosses(p.x, g.point(i + 1, j).x);
                let expect = row_inside && (inside || left || right);
                let blocked = g.state(Dir::Horizontal, i, j) == CellState::Blocked;
                assert_eq!(blocked, expect, "at {}", p);
                // The vertical plane is untouched either way.
                assert_eq!(g.state(Dir::Vertical, i, j), CellState::Free);
            }
        }
    }
}

/// The reason for the crossing semantics: no maze route may ever
/// cross a blocked rectangle's interior, even when the rectangle is
/// thinner than the track pitch.
#[test]
fn maze_never_crosses_blocked_interior() {
    let mut rng = Rng::seed_from_u64(0x6108);
    for _ in 0..CASES {
        let x0 = rng.gen_range(5i64..80);
        let y0 = rng.gen_range(5i64..80);
        let w = rng.gen_range(1i64..20);
        let h = rng.gen_range(1i64..20);
        let mut g = grid(100);
        let r = Rect::new(x0, y0, x0 + w, y0 + h);
        g.block_rect(&r, Dir::Horizontal);
        g.block_rect(&r, Dir::Vertical);
        if let Ok(p) = route_maze(
            &mut g,
            1,
            Point::new(0, 0),
            Point::new(100, 100),
            MazeOptions::default(),
        ) {
            for seg in &p.route.segs {
                let (a, b) = (seg.a(), seg.b());
                let crosses = if a.y == b.y {
                    a.y > r.y0() && a.y < r.y1() && a.x.min(b.x) < r.x1() && a.x.max(b.x) > r.x0()
                } else {
                    a.x > r.x0() && a.x < r.x1() && a.y.min(b.y) < r.y1() && a.y.max(b.y) > r.y0()
                };
                assert!(!crosses, "segment {}–{} crosses obstacle {}", a, b, r);
            }
        }
    }
}
