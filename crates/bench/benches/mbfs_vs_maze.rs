//! The paper's §3 performance claim: the Track Intersection Graph
//! router "results in faster completion of the interconnections on the
//! average when compared to maze type algorithms".
//!
//! Benchmarks one two-terminal connection on grids of growing size, for
//! the TIG modified BFS, the Lee wave and the A* maze variant. The TIG
//! search touches O(tracks) vertices; the maze wave touches O(area)
//! cells, so the gap widens with grid size.

use ocr_bench::harness::{BenchmarkId, Criterion};
use ocr_bench::{criterion_group, criterion_main};
use ocr_core::cost::{CostEvaluator, CostWeights};
use ocr_core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use ocr_core::pst::select_best_path;
use ocr_gen::rng::Rng;
use ocr_geom::{Dir, Interval, Point, Rect};
use ocr_grid::{GridModel, TrackSet};
use ocr_maze::{route_maze, route_mikami, MazeOptions};

/// A grid with scattered rectangular obstacles (~8% of area).
fn obstacle_grid(tracks: i64, seed: u64) -> GridModel {
    let pitch = 10;
    let side = tracks * pitch;
    let mut grid = GridModel::new(
        Rect::new(0, 0, side, side),
        TrackSet::from_pitch(Interval::new(0, side), pitch),
        TrackSet::from_pitch(Interval::new(0, side), pitch),
    );
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..tracks / 4 {
        let w = rng.gen_range(2i64..6) * pitch;
        let h = rng.gen_range(2i64..6) * pitch;
        let x = rng.gen_range(pitch..side - w - pitch);
        let y = rng.gen_range(pitch..side - h - pitch);
        let r = Rect::with_size(x, y, w, h);
        grid.block_rect(&r, Dir::Horizontal);
        grid.block_rect(&r, Dir::Vertical);
    }
    grid
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_terminal_search");
    group.sample_size(20);
    for tracks in [32i64, 64, 128, 256] {
        let grid = obstacle_grid(tracks, 7);
        let pitch = 10;
        let a = Point::new(pitch, pitch);
        let b = Point::new((tracks - 1) * pitch, (tracks - 1) * pitch);
        let (ai, bi) = (
            grid.snap(a).expect("on grid"),
            grid.snap(b).expect("on grid"),
        );

        let mut scratch = SearchScratch::new();
        group.bench_with_input(BenchmarkId::new("tig_mbfs", tracks), &tracks, |bch, _| {
            bch.iter(|| {
                let w = SearchWindow::full(&grid);
                let out = search_min_corner_paths(&grid, 0, ai, bi, &w, &mut scratch);
                let terms: Vec<(usize, usize)> = vec![];
                let ev = CostEvaluator::new(&grid, &terms, CostWeights::default(), pitch);
                select_best_path(&grid, 0, &out, a, b, &ev)
            })
        });
        group.bench_with_input(BenchmarkId::new("lee_maze", tracks), &tracks, |bch, _| {
            bch.iter(|| {
                let mut g = grid.clone();
                route_maze(&mut g, 0, a, b, MazeOptions::default())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("mikami_line_search", tracks),
            &tracks,
            |bch, _| {
                bch.iter(|| {
                    let mut g = grid.clone();
                    route_mikami(&mut g, 0, a, b, MazeOptions::default())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("astar_maze", tracks), &tracks, |bch, _| {
            bch.iter(|| {
                let mut g = grid.clone();
                route_maze(
                    &mut g,
                    0,
                    a,
                    b,
                    MazeOptions {
                        astar: true,
                        ..MazeOptions::default()
                    },
                )
            })
        });
    }
    group.finish();

    // Expansion-count report (the paper's actual argument), printed once.
    println!();
    println!("expanded search nodes per connection (TIG vs maze):");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10}",
        "tracks", "tig_mbfs", "mikami", "lee_maze", "astar"
    );
    let mut scratch = SearchScratch::new();
    for tracks in [32i64, 64, 128, 256] {
        let grid = obstacle_grid(tracks, 7);
        let pitch = 10;
        let a = Point::new(pitch, pitch);
        let b = Point::new((tracks - 1) * pitch, (tracks - 1) * pitch);
        let (ai, bi) = (grid.snap(a).expect("grid"), grid.snap(b).expect("grid"));
        let w = SearchWindow::full(&grid);
        let t = search_min_corner_paths(&grid, 0, ai, bi, &w, &mut scratch).expanded;
        let mut g1 = grid.clone();
        let lee = route_maze(&mut g1, 0, a, b, MazeOptions::default())
            .map(|p| p.expanded)
            .unwrap_or(0);
        let mut g2 = grid.clone();
        let astar = route_maze(
            &mut g2,
            0,
            a,
            b,
            MazeOptions {
                astar: true,
                ..MazeOptions::default()
            },
        )
        .map(|p| p.expanded)
        .unwrap_or(0);
        let mut g3 = grid.clone();
        let mt = route_mikami(&mut g3, 0, a, b, MazeOptions::default())
            .map(|p| p.expanded)
            .unwrap_or(0);
        println!("{tracks:>7} {t:>10} {mt:>10} {lee:>10} {astar:>10}");
    }
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
