//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! * **cost-function weights** — the paper's sparse default
//!   (w1 = 1, w2x = 1), the dense recommendation (w2x ↑) and a
//!   wire-length-only selector;
//! * **net ordering** — longest-distance-first (paper) vs
//!   shortest-first vs `criticality-hpwl`;
//! * **dogleg splitting** in the Level A channel router, beside the
//!   greedy column sweep and the four-layer layer-pair router on the
//!   same random channels;
//! * **maze fallback** — how often the (incomplete) MBFS needs rescue;
//! * **ordering and rip-up under congestion** — the five orderings and
//!   rip-up on and off on cell-free random instances dense enough that
//!   nets fail.
//!
//! Each Level B ablation reports completion, wire length, corners and
//! routing vias on the ami33-equivalent; the congestion table reports
//! failed nets, wire length and rips; the channel ablation reports
//! tracks used against the density lower bound.

use ocr_bench::rng::Rng;
use ocr_channel::{
    left_edge_track_count, route_four_layer, route_greedy, ChannelProblem, GreedyOptions,
    LeftEdgeOptions,
};
use ocr_core::{
    config::LevelBConfig, cost::CostWeights, level_b::LevelBRouter, order::NetOrdering,
    ordering_from_name, partition_nets, PartitionStrategy,
};
use ocr_gen::suite;
use ocr_netlist::RouteMetrics;

fn level_b_ablation(name: &str, config: LevelBConfig) {
    let chip = suite::ami33_like();
    let (_, set_b) = partition_nets(&chip.layout, &PartitionStrategy::ByClass).expect("partition");
    let mut router = LevelBRouter::new(&chip.layout, &set_b, config).expect("router");
    let res = router.route_all().expect("route_all");
    let m = RouteMetrics::of(&res.design, &chip.layout);
    println!(
        "{name:<28} routed {:>3}/{:<3} wl {:>6} corners {:>4} vias {:>4} fallbacks {:>3} rips {:>2} expanded {:>6}",
        res.stats.nets_routed,
        set_b.len(),
        m.wire_length,
        m.corners,
        m.vias,
        res.stats.maze_fallbacks,
        res.stats.rips,
        res.stats.expanded_vertices,
    );
}

/// Routes `random_layout(1600, n, 13)` for n = 320 and 640 under each
/// ordering with the default rip-up budget of 16, and under `longest`
/// with rip-up off, and prints one row per run. The runs fan out on the
/// `ocr-exec` pool and print in table order.
fn congestion_ablation() {
    let configs = [
        ("longest", 16),
        ("shortest", 16),
        ("congestion", 16),
        ("criticality", 16),
        ("shuffle:1", 16),
        ("longest", 0),
    ];
    let runs: Vec<(usize, &str, usize)> = [320, 640]
        .into_iter()
        .flat_map(|n| configs.iter().map(move |&(name, budget)| (n, name, budget)))
        .collect();
    let rows = ocr_exec::parallel_map(&runs, |&(n, name, budget)| {
        let (layout, nets) = ocr_bench::random_layout(1600, n, 13);
        let config = LevelBConfig {
            ordering: ordering_from_name(name).expect("known ordering"),
            rip_up_budget: budget,
            ..LevelBConfig::default()
        };
        let mut router = LevelBRouter::new(&layout, &nets, config).expect("router");
        let res = router.route_all().expect("route_all");
        let m = RouteMetrics::of(&res.design, &layout);
        (res.stats.nets_failed, m.wire_length, res.stats.rips)
    });
    println!(
        "{:>5} {:<12} {:>6} {:>6} {:>8} {:>4}",
        "nets", "order", "rip-up", "failed", "wl", "rips"
    );
    for (&(n, name, budget), (failed, wl, rips)) in runs.iter().zip(rows) {
        println!("{n:>5} {name:<12} {budget:>6} {failed:>6} {wl:>8} {rips:>4}");
    }
}

fn main() {
    println!("== Level B cost-weight ablation (ami33 set B, paper §3.2) ==");
    level_b_ablation("sparse (w2 = 1, paper)", LevelBConfig::default());
    level_b_ablation("dense (w2 = 3, paper)", LevelBConfig::dense());
    level_b_ablation(
        "length-only (w2 = 0)",
        LevelBConfig {
            weights: CostWeights::length_only(),
            ..LevelBConfig::default()
        },
    );

    println!();
    println!("== Net ordering ablation (paper §3: longest distance criterion) ==");
    for (name, ordering) in [
        ("longest first (paper)", NetOrdering::LongestFirst),
        ("shortest first", NetOrdering::ShortestFirst),
        ("criticality-hpwl", NetOrdering::Criticality),
    ] {
        level_b_ablation(
            name,
            LevelBConfig {
                ordering,
                ..LevelBConfig::default()
            },
        );
    }

    println!();
    println!("== Rip-up-and-reroute ablation ==");
    level_b_ablation("rip-up budget 16 (default)", LevelBConfig::default());
    level_b_ablation(
        "rip-up disabled",
        LevelBConfig {
            rip_up_budget: 0,
            ..LevelBConfig::default()
        },
    );

    println!();
    println!("== Maze-fallback ablation ==");
    level_b_ablation("fallback enabled", LevelBConfig::default());
    level_b_ablation(
        "fallback disabled",
        LevelBConfig {
            maze_fallback: false,
            ..LevelBConfig::default()
        },
    );

    println!();
    println!("== Congestion: ordering and rip-up (random_layout(1600, n, 13)) ==");
    congestion_ablation();

    println!();
    println!("== Channel router ablation (random channels, tracks used) ==");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>8} {:>4}",
        "width", "density", "dogleg", "plain", "greedy", "4L"
    );
    let mut rng = Rng::seed_from_u64(5);
    for width in [60usize, 120, 240] {
        let mut top = vec![0u32; width];
        let mut bottom = vec![0u32; width];
        for net in 1..=(width / 4) as u32 {
            for _ in 0..3 {
                let col = rng.gen_range(0..width);
                if rng.gen_bool(0.5) && top[col] == 0 {
                    top[col] = net;
                } else if bottom[col] == 0 {
                    bottom[col] = net;
                }
            }
        }
        let mut counts = std::collections::HashMap::new();
        for &n in top.iter().chain(bottom.iter()) {
            if n != 0 {
                *counts.entry(n).or_insert(0usize) += 1;
            }
        }
        for row in [&mut top, &mut bottom] {
            for v in row.iter_mut() {
                if *v != 0 && counts[v] < 2 {
                    *v = 0;
                }
            }
        }
        let p = ChannelProblem::from_ids(&top, &bottom);
        let dog = left_edge_track_count(&p, LeftEdgeOptions::default())
            .map(|t| t.to_string())
            .unwrap_or_else(|_| "cyclic".into());
        let plain = left_edge_track_count(
            &p,
            LeftEdgeOptions {
                dogleg: false,
                break_cycles: true,
            },
        )
        .map(|t| t.to_string())
        .unwrap_or_else(|_| "cyclic".into());
        let greedy = route_greedy(&p, GreedyOptions::default())
            .expect("greedy routes")
            .plan
            .tracks_used;
        // Four layers: the larger track count of the two layer pairs.
        let four = route_four_layer(&p)
            .expect("four-layer routes")
            .max_tracks();
        println!(
            "{width:>6} {:>8} {dog:>10} {plain:>10} {greedy:>8} {four:>4}",
            p.density()
        );
    }
}
