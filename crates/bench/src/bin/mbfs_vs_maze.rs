//! The paper's §3 search claim: the Track Intersection Graph router
//! "results in faster completion of the interconnections on the average
//! when compared to maze type algorithms".
//!
//! One two-terminal connection, corner to corner, on obstacle grids of
//! growing size. The table counts the search nodes each algorithm
//! expands: TIG vertices for the modified BFS, line probes for Mikami,
//! grid cells for the Lee wave and its A* variant. The TIG search touches
//! O(tracks) vertices while the maze wave touches O(area) cells, so the
//! gap widens with grid size. The output is deterministic (CI compares it
//! with `crates/bench/golden/mbfs_vs_maze.txt`); perfbench times the
//! search on the suite chips.

use ocr_core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use ocr_gen::rng::Rng;
use ocr_geom::{Dir, Interval, Point, Rect};
use ocr_grid::{GridModel, TrackSet};
use ocr_maze::{route_maze, route_mikami, MazeError, MazeOptions, MazePath};

const PITCH: i64 = 10;

/// `route_maze` and `route_mikami` share this signature.
type Router = fn(&mut GridModel, u32, Point, Point, MazeOptions) -> Result<MazePath, MazeError>;

/// A `tracks`×`tracks` grid with scattered rectangular obstacles (~8%
/// of the area).
fn obstacle_grid(tracks: i64, seed: u64) -> GridModel {
    let side = tracks * PITCH;
    let mut grid = GridModel::new(
        Rect::new(0, 0, side, side),
        TrackSet::from_pitch(Interval::new(0, side), PITCH),
        TrackSet::from_pitch(Interval::new(0, side), PITCH),
    );
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..tracks / 4 {
        let w = rng.gen_range(2i64..6) * PITCH;
        let h = rng.gen_range(2i64..6) * PITCH;
        let x = rng.gen_range(PITCH..side - w - PITCH);
        let y = rng.gen_range(PITCH..side - h - PITCH);
        let r = Rect::with_size(x, y, w, h);
        grid.block_rect(&r, Dir::Horizontal);
        grid.block_rect(&r, Dir::Vertical);
    }
    grid
}

fn main() {
    println!("expanded search nodes per connection (TIG vs maze):");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10}",
        "tracks", "tig_mbfs", "mikami", "lee_maze", "astar"
    );
    let astar = MazeOptions {
        astar: true,
        ..MazeOptions::default()
    };
    let mut scratch = SearchScratch::new();
    for tracks in [32i64, 64, 128, 256] {
        let grid = obstacle_grid(tracks, 7);
        let a = Point::new(PITCH, PITCH);
        let b = Point::new((tracks - 1) * PITCH, (tracks - 1) * PITCH);
        let (ai, bi) = (grid.snap(a).expect("grid"), grid.snap(b).expect("grid"));
        let w = SearchWindow::full(&grid);
        let tig = search_min_corner_paths(&grid, 0, ai, bi, &w, &mut scratch).expanded;
        let maze = |route: Router, opts: MazeOptions| {
            let mut g = grid.clone();
            route(&mut g, 0, a, b, opts)
                .map(|p| p.expanded)
                .expect("maze search routes")
        };
        let mikami = maze(route_mikami, MazeOptions::default());
        let lee = maze(route_maze, MazeOptions::default());
        let astar = maze(route_maze, astar);
        println!("{tracks:>7} {tig:>10} {mikami:>10} {lee:>10} {astar:>10}");
    }
}
