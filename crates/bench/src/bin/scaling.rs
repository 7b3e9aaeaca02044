//! The paper's §3.4 complexity claim: Level B routing runs in O(n·h·v)
//! time with O(h·v) storage, where `h`/`v` are the horizontal and
//! vertical track counts and `n` the number of two-terminal connections.
//!
//! This binary measures **work, not time**: per run it prints the grid
//! size `h·v`, the connections, the failed nets and the search work from
//! [`ocr_core::stats::RoutingStats`] — TIG vertices expanded by the
//! modified BFS, grid cells expanded by the maze fallback and the number
//! of fallbacks. The first table sweeps the grid at a fixed net count,
//! the second the net count at a fixed grid. A third table scales the
//! fanout of one net through the §3.3 Steiner decomposition and compares
//! the routed length with the terminal-only rectilinear MST. The output
//! is deterministic (CI compares it with
//! `crates/bench/golden/scaling.txt`); perfbench times Level B on the
//! suite chips.

use ocr_bench::{fresh_point, random_layout};
use ocr_core::steiner::rectilinear_mst_length;
use ocr_core::{config::LevelBConfig, level_b::LevelBRouter};
use ocr_gen::rng::Rng;
use ocr_geom::{Layer, Point, Rect};
use ocr_netlist::{Layout, NetClass, NetId};
use std::collections::HashSet;

/// A layout with one `pins`-terminal net on a 2000×2000 die.
fn fanout_layout(pins: usize, seed: u64) -> (Layout, NetId, Vec<Point>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut layout = Layout::new(Rect::new(0, 0, 2000, 2000));
    let net = layout.add_net("fan", NetClass::Signal);
    let mut used = HashSet::new();
    let pts: Vec<Point> = (0..pins)
        .map(|_| fresh_point(&mut rng, 2000, &mut used))
        .collect();
    for &p in &pts {
        layout.add_pin(net, None, p, Layer::Metal2);
    }
    (layout, net, pts)
}

fn work_header(param: &str) {
    println!(
        "{param:>6} {:>8} {:>6} {:>6} {:>13} {:>10} {:>9}",
        "h·v", "conns", "failed", "mbfs_vertices", "maze_cells", "fallbacks"
    );
}

/// Routes `nets` on `layout` and prints one work row labelled `param`.
///
/// # Panics
///
/// Panics if any net fails: the table must not count the work of a
/// partial routing.
fn work_row(param: usize, layout: &Layout, nets: &[NetId]) {
    let mut router = LevelBRouter::new(layout, nets, LevelBConfig::default()).expect("router");
    let hv = router.grid().nh() * router.grid().nv();
    let s = router.route_all().expect("routes").stats;
    assert_eq!(s.nets_failed, 0, "{param}: {} nets failed", s.nets_failed);
    println!(
        "{param:>6} {hv:>8} {:>6} {:>6} {:>13} {:>10} {:>9}",
        s.connections, s.nets_failed, s.expanded_vertices, s.maze_expanded, s.maze_fallbacks
    );
}

fn main() {
    println!("== Level B work vs grid size (40 two-terminal nets, seed 11) ==");
    work_header("side");
    for side in [400i64, 800, 1600, 3200] {
        let (layout, nets) = random_layout(side, 40, 11);
        work_row(side as usize, &layout, &nets);
    }

    println!();
    println!("== Level B work vs net count (side 1600, seed 13) ==");
    work_header("nets");
    for nets in [20usize, 40, 80, 160] {
        let (layout, ids) = random_layout(1600, nets, 13);
        work_row(nets, &layout, &ids);
    }

    println!();
    println!("Steiner quality (routed wl vs terminal-only MST):");
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "pins", "routed", "MST", "ratio"
    );
    for pins in [4usize, 8, 16, 32, 64] {
        let (layout, net, pts) = fanout_layout(pins, 21);
        let mut router =
            LevelBRouter::new(&layout, &[net], LevelBConfig::default()).expect("router");
        let res = router.route_all().expect("routes");
        let wl = res.design.route(net).expect("routed").wire_length();
        let mst = rectilinear_mst_length(&pts);
        println!(
            "{pins:>6} {wl:>10} {mst:>10} {:>8.3}",
            wl as f64 / mst as f64
        );
    }
}
