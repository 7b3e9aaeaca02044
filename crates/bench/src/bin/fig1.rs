//! Regenerates the paper's Figure 1: an instance of Level B routing and
//! its Track Intersection Graph, with the path search for net B.
//!
//! Prints the TIG adjacency (which intersections are usable edges for
//! net B), runs the two modified breadth-first searches, and lists the
//! minimum-corner paths each finds — reproducing the text's account:
//! "three possible paths can be identified: one path (v2,h4,v6) from the
//! MBFS that started from vertex v2, and two paths … from the MBFS that
//! started from vertex h2. The first path is selected because it
//! requires only one corner."

use ocr_bench::fig_instance::{build, terminal_points, NET_B};
use ocr_core::cost::{CostEvaluator, CostWeights};
use ocr_core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use ocr_core::pst::{enumerate_paths, select_best_path};
use ocr_core::tig::render_adjacency;
use ocr_geom::Dir;

fn main() {
    let (grid, t1, t2) = build();
    println!("Figure 1: Level B instance and its Track Intersection Graph");
    println!(
        "Terminals of net B: (v2, h2) and (v6, h4); nets A and C routed; obstacle O1 at (v4, h3)."
    );
    println!();
    println!("TIG usable edges for net B (h_j: usable v_i intersections):");
    print!("{}", render_adjacency(&grid, NET_B));
    println!();

    let window = SearchWindow::full(&grid);
    let mut scratch = SearchScratch::new();
    let out = search_min_corner_paths(&grid, NET_B, t1, t2, &window, &mut scratch);
    let (p1, p2) = (terminal_points(&grid, t1), terminal_points(&grid, t2));
    let unrouted: Vec<(usize, usize)> = vec![];
    let ev = CostEvaluator::new(&grid, &unrouted, CostWeights::default(), 10);

    let name = |k: (Dir, usize)| match k.0 {
        Dir::Horizontal => format!("h{}", k.1 + 1),
        Dir::Vertical => format!("v{}", k.1 + 1),
    };
    for (label, pst) in [("v2", &out.from_v), ("h2", &out.from_h)] {
        println!(
            "MBFS from {label}: min corners = {:?}, {} vertices expanded",
            pst.corners, pst.expanded
        );
        for path in enumerate_paths(&grid, NET_B, pst, p1, p2, &ev, 16) {
            let names: Vec<String> = path.tracks.iter().map(|&k| name(k)).collect();
            println!(
                "  path ({}, v6*): {} corner(s), wl {}, cost {:.3}",
                names.join(", "),
                path.corners,
                path.points
                    .windows(2)
                    .map(|w| ocr_geom::manhattan(w[0], w[1]))
                    .sum::<i64>(),
                path.cost
            );
        }
    }
    println!("  (* v6 is the terminal edge — reaching it costs no corner)");
    println!();

    let best = select_best_path(&grid, NET_B, &out, p1, p2, &ev).expect("a path exists");
    let names: Vec<String> = best.tracks.iter().map(|&k| name(k)).collect();
    println!(
        "Selected path: ({}, v6) with {} corner — matching the paper's (v2, h4, v6).",
        names.join(", "),
        best.corners
    );
    assert_eq!(best.corners, 1, "the paper's selected path has one corner");
}
