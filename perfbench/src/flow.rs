//! The paper's over-cell flow, re-composed from the router's public
//! calls and timed from outside, one span per call:
//!
//! `parse_chip` → `partition_nets(ByClass)` → `route_chip_channels` →
//! `LevelBRouter::new` → `route_all` → `RoutedDesign::merge` →
//! `verify_with` → `write_routes`.
//!
//! A *pass* is one chip through that pipeline. Its flow time runs from
//! partition through verify; its job time adds parsing the chip text (the
//! in-process half of accepting a job) and writing the routes answer.

use crate::trace::Tracer;
use ocr_channel::ChipChannelOptions;
use ocr_core::{partition_nets, LevelBConfig, LevelBRouter, OverCellFlow, PartitionStrategy};
use ocr_gen::{generate, BenchmarkSpec, GeneratedChip};
use ocr_netlist::RouteMetrics;
use ocr_verify::VerifyOptions;

/// A benchmark chip as the program receives it: `.ocr` text.
pub struct Chip {
    /// Name used in reports and in the recorded counts.
    pub name: String,
    /// The chip in `.ocr` form.
    pub text: String,
}

fn chip(g: GeneratedChip) -> Chip {
    Chip {
        name: g.spec.name.clone(),
        text: ocr_io::write_chip(&g.layout, &g.placement),
    }
}

/// The paper's three chips in the paper's order.
pub fn suite_chips() -> Vec<Chip> {
    ocr_gen::suite::all().into_iter().map(chip).collect()
}

/// Spec seed of the `scale8` chip: the ×8 member of the `stress` spec
/// family (`0xA3133 + 8`). One chip, so every pass measures the same
/// work and the workload seed has nothing to vary but its own name.
pub const SCALE8_SEED: u64 = 0xA313B;

/// The ×8 member of the `stress` spec family: the ami33 statistics
/// scaled by 8 (264 cells, 984 nets).
pub fn scale8_chips() -> Vec<Chip> {
    let scale = 8;
    vec![chip(generate(&BenchmarkSpec {
        name: format!("ami33x{scale}"),
        cells: 33 * scale,
        rows: 20,
        nets_level_a: 4 * scale,
        avg_pins_level_a: 44.25,
        nets_level_b: 119 * scale,
        avg_pins_level_b: 2.55,
        obstacles: 8 * scale,
        locality: 0.15,
        seed: SCALE8_SEED,
    }))]
}

/// Exact, host-independent work and quality counts of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// TIG vertices expanded by MBFS.
    pub mbfs_vertices: u64,
    /// Grid cells expanded by the Lee maze fallback.
    pub maze_cells: u64,
    /// Two-terminal connections Level B made.
    pub connections: u64,
    /// Total wire length, DBU.
    pub wirelength: i64,
    /// Routing via cuts.
    pub vias: u64,
    /// Direction changes.
    pub corners: u64,
    /// Final die area, DBU².
    pub layout_area: i128,
}

impl Counts {
    /// Field names, in the order of a counts-file line.
    pub const HEADER: &'static str =
        "chip mbfs_vertices maze_cells connections wirelength vias corners layout_area";

    /// One counts-file line.
    pub fn line(&self, chip: &str) -> String {
        format!(
            "{chip} {} {} {} {} {} {} {}",
            self.mbfs_vertices,
            self.maze_cells,
            self.connections,
            self.wirelength,
            self.vias,
            self.corners,
            self.layout_area
        )
    }

    /// Parses the counts file: `#` comments, then one line per chip.
    pub fn parse_file(text: &str) -> Result<Vec<(String, Counts)>, String> {
        let mut out = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("counts line {}: `{line}`", no + 1);
            if f.len() != 8 {
                return Err(bad());
            }
            let n = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
            out.push((
                f[0].to_string(),
                Counts {
                    mbfs_vertices: n(1)?,
                    maze_cells: n(2)?,
                    connections: n(3)?,
                    wirelength: f[4].parse().map_err(|_| bad())?,
                    vias: n(5)?,
                    corners: n(6)?,
                    layout_area: f[7].parse().map_err(|_| bad())?,
                },
            ));
        }
        Ok(out)
    }

    /// Adds another chip's counts.
    pub fn add(&mut self, o: &Counts) {
        self.mbfs_vertices += o.mbfs_vertices;
        self.maze_cells += o.maze_cells;
        self.connections += o.connections;
        self.wirelength += o.wirelength;
        self.vias += o.vias;
        self.corners += o.corners;
        self.layout_area += o.layout_area;
    }
}

/// Per-call seconds of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub accept: f64,
    pub partition: f64,
    pub channel: f64,
    pub grid: f64,
    pub level_b: f64,
    pub verify: f64,
    /// Partition through verify.
    pub flow: f64,
    /// Accept through answer.
    pub job: f64,
}

/// Everything one pass produced.
pub struct Pass {
    pub counts: Counts,
    pub stats: ocr_core::RoutingStats,
    /// Tracks `route_chip_channels` used, summed over channels.
    pub tracks: u64,
    /// nh × nv of the Level B grid.
    pub grid_cells: u64,
    /// Oracle violations.
    pub violations: usize,
    /// Nets declared failed.
    pub unrouted: usize,
    /// The routes answer (`write_routes` text on the final layout).
    pub routes: String,
    pub times: Times,
}

/// Runs one chip through the composed pipeline, one span per call.
pub fn run_pass(chip: &Chip, tracer: &Tracer, id: u64) -> Result<Pass, String> {
    let ((out, mut times), job) = tracer.span("job", None, id, |job| {
        let mut t = Times::default();
        let (parsed, s) = tracer.span("job.accept", job, id, |_| ocr_io::parse_chip(&chip.text));
        t.accept = s;
        let (layout, placement) = match parsed {
            Ok(p) => p,
            Err(e) => return (Err(format!("{}: parse: {}", chip.name, e.message)), t),
        };
        let (routed, flow) = tracer.span("flow", job, id, |flow| -> Result<_, String> {
            let (sets, s) = tracer.span("core.partition", flow, id, |_| {
                partition_nets(&layout, &PartitionStrategy::ByClass)
            });
            t.partition = s;
            let (set_a, set_b) = sets.map_err(|e| e.to_string())?;
            let (a, s) = tracer.span("channel.route", flow, id, |_| {
                ocr_channel::route_chip_channels(
                    &layout,
                    &placement,
                    &set_a,
                    ChipChannelOptions::default(),
                )
            });
            t.channel = s;
            let mut a = a.map_err(|e| e.to_string())?;
            let (router, s) = tracer.span("grid.build", flow, id, |_| {
                LevelBRouter::new(&a.expanded, &set_b, LevelBConfig::default())
            });
            t.grid = s;
            let mut router = router.map_err(|e| e.to_string())?;
            let grid = router.grid();
            let grid_cells = (grid.nh() * grid.nv()) as u64;
            let (b, s) = tracer.span("core.level_b", flow, id, |_| router.route_all());
            t.level_b = s;
            let b = b.map_err(|e| e.to_string())?;
            let stats = b.stats;
            tracer.span("core.merge", flow, id, |_| a.design.merge(b.design));
            let (report, s) = tracer.span("verify", flow, id, |_| {
                ocr_verify::verify_with(&a.expanded, &a.design, &VerifyOptions::default())
            });
            t.verify = s;
            let tracks = a.channel_tracks.iter().sum::<usize>() as u64;
            Ok((a, stats, grid_cells, tracks, report.violations.len()))
        });
        t.flow = flow;
        let (a, stats, grid_cells, tracks, violations) = match routed {
            Ok(r) => r,
            Err(e) => return (Err(format!("{}: {e}", chip.name)), t),
        };
        let (routes, _) = tracer.span("job.answer", job, id, |_| {
            ocr_io::write_routes(&a.expanded, &a.design)
        });
        let m = RouteMetrics::of(&a.design, &a.expanded);
        let counts = Counts {
            mbfs_vertices: stats.expanded_vertices as u64,
            maze_cells: stats.maze_expanded as u64,
            connections: stats.connections as u64,
            wirelength: m.wire_length,
            vias: m.vias as u64,
            corners: m.corners as u64,
            layout_area: m.layout_area,
        };
        let pass = Pass {
            counts,
            stats,
            tracks,
            grid_cells,
            violations,
            unrouted: a.design.failed.len(),
            routes,
            times: t,
        };
        (Ok(pass), t)
    });
    times.job = job;
    out.map(|mut p| {
        p.times = times;
        p
    })
}

/// The routes `OverCellFlow::run` answers for the chip — what the
/// composed pipeline must reproduce byte for byte.
pub fn reference_routes(chip: &Chip) -> Result<String, String> {
    let (layout, placement) =
        ocr_io::parse_chip(&chip.text).map_err(|e| format!("{}: {}", chip.name, e.message))?;
    let r = OverCellFlow::default()
        .run(&layout, &placement)
        .map_err(|e| format!("{}: {e}", chip.name))?;
    Ok(ocr_io::write_routes(&r.layout, &r.design))
}

/// Why a pass is wrong, if it is: oracle violations, unrouted nets, or
/// counts or routes that differ from their references.
pub fn check_pass(
    chip: &Chip,
    pass: &Pass,
    expected: Option<&Counts>,
    reference: Option<&str>,
) -> Option<String> {
    if pass.violations > 0 {
        return Some(format!(
            "{}: {} oracle violation(s)",
            chip.name, pass.violations
        ));
    }
    if pass.unrouted > 0 {
        return Some(format!("{}: {} unrouted net(s)", chip.name, pass.unrouted));
    }
    if let Some(want) = expected {
        if *want != pass.counts {
            return Some(format!(
                "{}: counts differ from the record\n  recorded {}\n  measured {}",
                chip.name,
                want.line(&chip.name),
                pass.counts.line(&chip.name)
            ));
        }
    }
    if let Some(reference) = reference {
        if reference != pass.routes {
            return Some(format!(
                "{}: composed routes differ from OverCellFlow::run",
                chip.name
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_round_trip() {
        let c = Counts {
            mbfs_vertices: 1,
            maze_cells: 2,
            connections: 3,
            wirelength: 4,
            vias: 5,
            corners: 6,
            layout_area: 7,
        };
        let text = format!("# {}\n\n{}\n", Counts::HEADER, c.line("x"));
        assert_eq!(Counts::parse_file(&text), Ok(vec![("x".to_string(), c)]));
        assert!(Counts::parse_file("x 1 2 3").is_err());
        assert!(Counts::parse_file("x 1 2 3 4 5 6 seven").is_err());
    }
}
