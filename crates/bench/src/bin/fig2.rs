//! Regenerates the paper's Figure 2: the Path Selection Trees for net B
//! of the Figure 1 instance.
//!
//! A Path Selection Tree is the predecessor structure the MBFS records:
//! every visited vertex with its BFS level and all its minimum-level
//! parents. The backtracking path selector of §3.2 walks these trees.

use ocr_bench::fig_instance::{build, NET_B};
use ocr_core::mbfs::{search_min_corner_paths, SearchScratch, SearchWindow};
use ocr_geom::Dir;

fn name(k: (Dir, usize)) -> String {
    match k.0 {
        Dir::Horizontal => format!("h{}", k.1 + 1),
        Dir::Vertical => format!("v{}", k.1 + 1),
    }
}

fn main() {
    let (grid, t1, t2) = build();
    let window = SearchWindow::full(&grid);
    let mut scratch = SearchScratch::new();
    let out = search_min_corner_paths(&grid, NET_B, t1, t2, &window, &mut scratch);
    println!("Figure 2: Path Selection Trees for net B");
    for pst in [out.from_v, out.from_h] {
        println!();
        println!(
            "PST rooted at {} (min corners {:?}):",
            name(pst.start),
            pst.corners
        );
        let mut vertices: Vec<_> = pst.iter().collect();
        vertices.sort_by_key(|(k, d)| (d.level, k.0.index(), k.1));
        for (k, data) in vertices {
            let parents: Vec<String> = data.parents().map(name).collect();
            let target = if pst.targets.contains(&k) {
                "  ← target"
            } else {
                ""
            };
            println!(
                "  level {}: {} (run {}..{}){}{}",
                data.level,
                name(k),
                data.run.0 + 1,
                data.run.1 + 1,
                if parents.is_empty() {
                    String::new()
                } else {
                    format!("  parents: {}", parents.join(", "))
                },
                target
            );
        }
    }
}
