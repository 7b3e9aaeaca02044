//! Seeded random layout generation.

use crate::rng::Rng;
use crate::spec::{distribute_pins, BenchmarkSpec};
use ocr_geom::{manhattan, Coord, Layer, LayerSet, Point, Rect};
use ocr_netlist::{CellId, DesignRules, Layout, NetClass, NetId, Obstacle, Row, RowPlacement};

/// A generated benchmark chip.
#[derive(Clone, Debug)]
pub struct GeneratedChip {
    /// The layout (cells, nets, pins, obstacles, rules).
    pub layout: Layout,
    /// The row placement the channel flows consume.
    pub placement: RowPlacement,
    /// The spec it was generated from.
    pub spec: BenchmarkSpec,
}

impl GeneratedChip {
    /// Net ids of the Level A set (class `Critical`).
    pub fn level_a_nets(&self) -> Vec<NetId> {
        self.layout
            .net_ids()
            .filter(|&n| self.layout.net(n).class == NetClass::Critical)
            .collect()
    }

    /// Net ids of the Level B set (class `Signal`).
    pub fn level_b_nets(&self) -> Vec<NetId> {
        self.layout
            .net_ids()
            .filter(|&n| self.layout.net(n).class == NetClass::Signal)
            .collect()
    }
}

/// A free pin slot on a cell's top or bottom edge.
#[derive(Clone, Copy, Debug)]
struct Slot {
    cell: CellId,
    /// Absolute pin position.
    at: Point,
}

/// Generates a layout + placement from a spec.
///
/// Every pin sits on a cell's top or bottom edge at a channel-grid
/// column, so the same layout is routable by both the all-channel
/// baselines and the over-cell flow. Slots are globally unique, which
/// rules out channel pin collisions and Level B terminal conflicts by
/// construction.
///
/// # Panics
///
/// Panics if the spec demands more pins than the generated cells offer
/// slots (increase cells or reduce pins), or if two slots lie 2³² DBU
/// or more apart.
pub fn generate(spec: &BenchmarkSpec) -> GeneratedChip {
    let rules = DesignRules::default();
    let pitch = rules.channel_pitch_level_a();
    let mut rng = Rng::seed_from_u64(spec.seed);

    // ---- Cells in rows -------------------------------------------------
    let per_row = spec.cells.div_ceil(spec.rows);
    let margin = 6 * pitch;
    let gap_between_cells = 2 * pitch;
    let initial_channel = 2 * pitch;

    let mut layout = Layout::new(Rect::new(0, 0, 10, 10)); // die fixed later
    layout.rules = rules;
    let mut rows: Vec<Row> = Vec::new();
    let mut y = initial_channel;
    let mut max_x = 0;
    let mut cell_idx = 0usize;
    // Size cells so the edge-slot supply is ~3× the pin demand — pin
    // density on real macro-cell boundaries is far below saturation.
    let avg_cols = (spec.pins() * 3 / (2 * spec.cells)).max(16) as Coord;
    for r in 0..spec.rows {
        let height = pitch * rng.gen_range(28i64..44);
        let mut x = margin;
        let mut row_cells = Vec::new();
        let in_row = per_row.min(spec.cells - cell_idx);
        for _ in 0..in_row {
            let width = pitch * rng.gen_range(avg_cols * 7 / 10..=avg_cols * 14 / 10);
            let outline = Rect::with_size(x, y, width, height);
            let cid = layout.add_cell(format!("c{}_{}", r, row_cells.len()), outline);
            row_cells.push(cid);
            x += width + gap_between_cells;
            cell_idx += 1;
        }
        max_x = max_x.max(x - gap_between_cells);
        rows.push(Row {
            y0: y,
            height,
            cells: row_cells,
        });
        y += height + initial_channel;
    }
    let die = Rect::new(0, 0, max_x + margin, y);
    layout.die = die;
    let placement = RowPlacement::new(rows, margin, die.x1() - max_x);

    // ---- Pin slots ------------------------------------------------------
    let mut slots: Vec<Slot> = Vec::new();
    for (ci, cell) in layout.cells.iter().enumerate() {
        let o = cell.outline;
        let mut cx = o.x0();
        // First column at the first grid point inside the cell.
        let rem = cx % pitch;
        if rem != 0 {
            cx += pitch - rem;
        }
        while cx <= o.x1() {
            for yy in [o.y1(), o.y0()] {
                slots.push(Slot {
                    cell: CellId(ci as u32),
                    at: Point::new(cx, yy),
                });
            }
            cx += pitch;
        }
    }
    assert!(
        slots.len() >= spec.pins(),
        "spec {} wants {} pins but only {} slots exist",
        spec.name,
        spec.pins(),
        slots.len()
    );
    // Shuffle slots (Fisher–Yates over indices).
    rng.shuffle(&mut slots);

    // ---- Nets -----------------------------------------------------------
    let a_total = (spec.avg_pins_level_a * spec.nets_level_a as f64).round() as usize;
    let b_total = (spec.avg_pins_level_b * spec.nets_level_b as f64).round() as usize;
    let a_pins = distribute_pins(a_total, spec.nets_level_a);
    let b_pins = distribute_pins(b_total, spec.nets_level_b);

    let mut next_slot = 0usize;
    for (k, &count) in a_pins.iter().enumerate() {
        let net = layout.add_net(format!("a{k}"), NetClass::Critical);
        layout.net_mut(net).criticality = 10;
        for s in &slots[next_slot..next_slot + count] {
            layout.add_pin(net, Some(s.cell), s.at, Layer::Metal2);
        }
        next_slot += count;
    }
    // Level B nets are locality-biased: real macro-cell signal nets
    // connect nearby cells. Each net anchors at a random free slot and
    // draws its remaining pins from the nearest free slots (with a
    // little randomness), keeping over-cell congestion realistic.
    let mut free: Vec<Slot> = slots[next_slot..].to_vec();
    let mut keys: Vec<u64> = Vec::with_capacity(free.len());
    for (k, &count) in b_pins.iter().enumerate() {
        let net = layout.add_net(format!("b{k}"), NetClass::Signal);
        assert!(free.len() >= count, "ran out of pin slots");
        let anchor = free.swap_remove(rng.gen_range(0..free.len()));
        layout.add_pin(net, Some(anchor.cell), anchor.at, Layer::Metal2);
        for _ in 1..count {
            // Pick uniformly among the nearest ⌈locality·|free|⌉ free
            // slots (at least 8), nearest first by distance to the
            // anchor, ties by slot order.
            let window = ((free.len() as f64 * spec.locality).ceil() as usize)
                .max(8)
                .min(free.len());
            let rank = rng.gen_range(0..window);
            let s = free.swap_remove(nearest_nth(&free, anchor.at, rank, &mut keys));
            layout.add_pin(net, Some(s.cell), s.at, Layer::Metal2);
        }
    }

    // ---- Obstacles --------------------------------------------------------
    // Over-cell keep-outs strictly inside cell interiors (≥ 2 pitches
    // from the cell boundary so no terminal cell is sealed).
    let over_pitch = layout.rules.over_cell_pitch();
    for k in 0..spec.obstacles {
        let ci = rng.gen_range(0..layout.cells.len());
        let o = layout.cells[ci].outline;
        let inset = 2 * over_pitch;
        if o.width() <= 4 * inset || o.height() <= 3 * inset {
            continue;
        }
        let w = rng.gen_range(inset..=(o.width() - 3 * inset));
        let h = rng.gen_range(inset / 2..=(o.height() - 2 * inset));
        let x0 = o.x0() + rng.gen_range(inset..=(o.width() - inset - w));
        let y0 = o.y0() + rng.gen_range(inset..=(o.height() - inset - h));
        let layers = match k % 3 {
            0 => LayerSet::level_b(),
            1 => LayerSet::single(Layer::Metal3),
            _ => LayerSet::single(Layer::Metal4),
        };
        layout.add_obstacle(Obstacle::new(Rect::with_size(x0, y0, w, h), layers));
    }

    GeneratedChip {
        layout,
        placement,
        spec: spec.clone(),
    }
}

/// Index in `free` of the slot at `rank` when the slots are ordered by
/// Manhattan distance to `anchor`, ties by index: the element a stable
/// sort by distance puts at `rank`. `(distance, index)` is a total
/// order, so one selection over the keys answers it in O(|free|).
/// Each key packs the pair into one `u64`, distance in the high half,
/// so integer order is the pair's order. `keys` is scratch, reused
/// across calls.
fn nearest_nth(free: &[Slot], anchor: Point, rank: usize, keys: &mut Vec<u64>) -> usize {
    keys.clear();
    keys.extend(free.iter().enumerate().map(|(ix, s)| {
        let distance =
            u32::try_from(manhattan(s.at, anchor)).expect("slot distances fit in 32 bits");
        let ix = u32::try_from(ix).expect("slot indices fit in 32 bits");
        (u64::from(distance) << 32) | u64::from(ix)
    }));
    let (_, &mut key, _) = keys.select_nth_unstable(rank);
    (key & u64::from(u32::MAX)) as usize
}

/// Convenience: a small random chip for tests and fuzzing, parameterized
/// only by sizes and seed.
pub fn small_random(
    cells: usize,
    rows: usize,
    nets_a: usize,
    nets_b: usize,
    seed: u64,
) -> GeneratedChip {
    generate(&BenchmarkSpec {
        name: format!("random-{seed}"),
        cells,
        rows,
        nets_level_a: nets_a,
        avg_pins_level_a: 3.0,
        nets_level_b: nets_b,
        avg_pins_level_b: 2.5,
        obstacles: 2,
        locality: 0.2,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "t".into(),
            cells: 6,
            rows: 2,
            nets_level_a: 2,
            avg_pins_level_a: 4.0,
            nets_level_b: 8,
            avg_pins_level_b: 2.5,
            obstacles: 3,
            locality: 0.2,
            seed: 42,
        }
    }

    /// The pick the generator made before selection: stable-sort every
    /// free slot by distance to the anchor, read the element at `rank`.
    fn nearest_nth_by_sort(free: &[Slot], anchor: Point, rank: usize) -> usize {
        let mut order: Vec<usize> = (0..free.len()).collect();
        order.sort_by_key(|&ix| manhattan(free[ix].at, anchor));
        order[rank]
    }

    #[test]
    fn selection_picks_what_the_stable_sort_picked() {
        // Slots on a 6×6 grid, so most distances tie and the tie-break
        // by slot order decides most ranks.
        let mut keys = Vec::new();
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let on_grid =
                |rng: &mut Rng| Point::new(rng.gen_range(0i64..6), rng.gen_range(0i64..6));
            let free: Vec<Slot> = (0..rng.gen_range(1u32..40))
                .map(|k| Slot {
                    cell: CellId(k),
                    at: on_grid(&mut rng),
                })
                .collect();
            let anchor = on_grid(&mut rng);
            // Every rank: rank 0, the last rank and so every window's.
            for rank in 0..free.len() {
                assert_eq!(
                    nearest_nth(&free, anchor, rank, &mut keys),
                    nearest_nth_by_sort(&free, anchor, rank),
                    "seed {seed}, rank {rank} of {}",
                    free.len()
                );
            }
        }
    }

    #[test]
    fn generated_layout_is_consistent() {
        let chip = generate(&spec());
        assert!(chip.layout.audit().is_empty(), "{:?}", chip.layout.audit());
        assert!(
            chip.placement.audit(&chip.layout).is_empty(),
            "{:?}",
            chip.placement.audit(&chip.layout)
        );
        assert_eq!(chip.layout.cells.len(), 6);
        assert_eq!(chip.layout.nets.len(), 10);
    }

    #[test]
    fn determinism_same_seed_same_layout() {
        let a = generate(&spec());
        let b = generate(&spec());
        assert_eq!(a.layout.die, b.layout.die);
        assert_eq!(a.layout.pins.len(), b.layout.pins.len());
        for (pa, pb) in a.layout.pins.iter().zip(&b.layout.pins) {
            assert_eq!(pa.position, pb.position);
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = generate(&spec());
        let mut s2 = spec();
        s2.seed = 43;
        let b = generate(&s2);
        let same = a
            .layout
            .pins
            .iter()
            .zip(&b.layout.pins)
            .all(|(x, y)| x.position == y.position);
        assert!(!same);
    }

    #[test]
    fn pins_are_on_grid_and_unique() {
        let chip = generate(&spec());
        let pitch = DesignRules::default().channel_pitch_level_a();
        let mut seen = HashSet::new();
        for pin in &chip.layout.pins {
            assert_eq!(pin.position.x % pitch, 0, "pin x off-grid");
            assert!(seen.insert(pin.position), "duplicate pin position");
        }
    }

    #[test]
    fn level_a_pin_average_matches_spec() {
        let chip = generate(&spec());
        let a = chip.level_a_nets();
        assert_eq!(a.len(), 2);
        let pins: usize = a.iter().map(|&n| chip.layout.net(n).pin_count()).sum();
        assert_eq!(pins as f64 / a.len() as f64, 4.0);
    }

    #[test]
    fn obstacles_stay_inside_cells() {
        let chip = generate(&spec());
        for ob in &chip.layout.obstacles {
            assert!(
                chip.layout
                    .cells
                    .iter()
                    .any(|c| c.outline.contains_rect(&ob.rect)),
                "obstacle {} outside every cell",
                ob.rect
            );
        }
    }
}
