//! The path-selection cost function.
//!
//! Among the minimum-corner paths found by the modified BFS, the paper
//! selects the one minimizing
//!
//! ```text
//!           k
//! C = w1·wl + Σ (w21·drg_j + w22·dup_j + w23·acf_j)
//!          j=1
//! ```
//!
//! where `wl` is the path's wire length, and for each corner `j`:
//! `drg_j` measures proximity to already-routed grid points, `dup_j`
//! proximity to unrouted net terminals, and `acf_j` the local area
//! congestion. The first term controls total wire length; the second
//! "controls the distribution of wiring segments to avoid blocking
//! unrouted nets".

use crate::mbfs::SearchWindow;
use ocr_geom::{Coord, Dir, Point};
use ocr_grid::GridModel;
use std::fmt;

/// A rejected [`CostWeights`] configuration.
///
/// Values are carried as formatted text so the error stays `Eq` (and so
/// a NaN compares equal to itself inside [`crate::RouteError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WeightsError {
    /// A weight is NaN or infinite — it would poison every path cost
    /// and break the selection sort's total order.
    NonFinite {
        /// The offending field (`"w1"`, `"w21"`, …).
        field: &'static str,
        /// The rejected value, formatted.
        value: String,
    },
    /// A weights spec named a key that is not a weight.
    UnknownKey(String),
    /// A weights spec value failed to parse as a number.
    BadValue {
        /// The key whose value was rejected.
        key: String,
        /// The unparsable text.
        value: String,
    },
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::NonFinite { field, value } => {
                write!(f, "weight {field} must be finite, got {value}")
            }
            WeightsError::UnknownKey(key) => write!(
                f,
                "unknown weight `{key}` (known: w1, w21, w22, w23, w24, radius)"
            ),
            WeightsError::BadValue { key, value } => {
                write!(f, "weight {key} has unparsable value `{value}`")
            }
        }
    }
}

impl std::error::Error for WeightsError {}

/// Weights of the cost function.
///
/// The paper's guidance: "for routing problems with sparse net
/// distributions it is sufficient to balance the effect of the two terms
/// … by setting w1 = 1 and w21 = w22 = w23 = 1.0. For routing problems
/// with dense net distributions the second term … should be weighted
/// more."
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Wire-length weight (`wl` is measured in track pitches so the
    /// terms are commensurate).
    pub w1: f64,
    /// Weight of corner proximity to routed grid points.
    pub w21: f64,
    /// Weight of corner proximity to unrouted terminals.
    pub w22: f64,
    /// Weight of the area congestion factor.
    pub w23: f64,
    /// Weight of corner proximity to *sensitive* nets' wiring — the
    /// paper's example of an additional term: "to prevent parallel
    /// routing of sensitive nets". Zero (off) by default.
    pub w24: f64,
    /// Index radius of the proximity / congestion window around a corner.
    pub radius: usize,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            w1: 1.0,
            w21: 1.0,
            w22: 1.0,
            w23: 1.0,
            w24: 0.0,
            radius: 3,
        }
    }
}

impl CostWeights {
    /// The paper's dense-layout recommendation: triple the
    /// blocking-avoidance weights.
    pub fn dense() -> Self {
        CostWeights {
            w21: 3.0,
            w22: 3.0,
            w23: 3.0,
            ..CostWeights::default()
        }
    }

    /// Wire-length-only selection (sets the corner terms to zero) —
    /// used by the weight-ablation benchmark.
    pub fn length_only() -> Self {
        CostWeights {
            w21: 0.0,
            w22: 0.0,
            w23: 0.0,
            ..CostWeights::default()
        }
    }

    /// Rejects non-finite weights. Run at config load
    /// ([`crate::level_b::LevelBRouter::new`]) so a NaN or infinity from
    /// user configuration becomes a typed error instead of a panic in
    /// the path-selection sort mid-net.
    pub fn validate(&self) -> Result<(), WeightsError> {
        for (field, value) in [
            ("w1", self.w1),
            ("w21", self.w21),
            ("w22", self.w22),
            ("w23", self.w23),
            ("w24", self.w24),
        ] {
            if !value.is_finite() {
                return Err(WeightsError::NonFinite {
                    field,
                    value: format!("{value}"),
                });
            }
        }
        Ok(())
    }

    /// Parses a weights spec: a preset name (`default`, `dense`,
    /// `length-only`) or a comma-separated `key=value` list over the
    /// default weights (`w1=2,w23=0.5,radius=5`). The result is
    /// [`validate`](CostWeights::validate)d, so specs spelling out NaN
    /// or infinity (`w1=nan` — `f64` parses those!) are rejected here,
    /// not deep inside a route.
    pub fn parse(spec: &str) -> Result<CostWeights, WeightsError> {
        let mut w = match spec.trim() {
            "default" => return Ok(CostWeights::default()),
            "dense" => return Ok(CostWeights::dense()),
            "length-only" | "length_only" => return Ok(CostWeights::length_only()),
            _ => CostWeights::default(),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(WeightsError::UnknownKey(part.to_string()));
            };
            let (key, value) = (key.trim(), value.trim());
            let bad = || WeightsError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "w1" => w.w1 = value.parse::<f64>().map_err(|_| bad())?,
                "w21" => w.w21 = value.parse::<f64>().map_err(|_| bad())?,
                "w22" => w.w22 = value.parse::<f64>().map_err(|_| bad())?,
                "w23" => w.w23 = value.parse::<f64>().map_err(|_| bad())?,
                "w24" => w.w24 = value.parse::<f64>().map_err(|_| bad())?,
                "radius" => w.radius = value.parse::<usize>().map_err(|_| bad())?,
                _ => return Err(WeightsError::UnknownKey(key.to_string())),
            }
        }
        w.validate()?;
        Ok(w)
    }
}

/// Appends to `out` the terminals [`CostEvaluator::dup`] can see from a
/// corner inside `window`, in their original order.
///
/// `dup` ignores terminals farther than Manhattan `2·radius` from the
/// corner, and every corner of a path found in `window` lies inside it.
/// So a terminal farther than `2·radius` from the window never counts.
/// Dropping those, and keeping the rest in order, leaves every `dup` sum
/// bit-identical to the one over the full list.
pub fn terminals_near_window(
    window: &SearchWindow,
    radius: usize,
    terminals: impl IntoIterator<Item = (usize, usize)>,
    out: &mut Vec<(usize, usize)>,
) {
    let reach = 2 * radius;
    let gap = |k: usize, lo: usize, hi: usize| lo.saturating_sub(k) + k.saturating_sub(hi);
    out.extend(
        terminals
            .into_iter()
            .filter(|&(i, j)| gap(i, window.i0, window.i1) + gap(j, window.j0, window.j1) <= reach),
    );
}

/// Evaluates cost terms for corners on a given grid.
#[derive(Debug)]
pub struct CostEvaluator<'a> {
    grid: &'a GridModel,
    /// Terminals of nets not yet routed (grid indices).
    unrouted_terminals: &'a [(usize, usize)],
    /// Net ids whose wiring the `w24` term keeps paths away from.
    sensitive_nets: &'a [u32],
    weights: CostWeights,
    /// Average pitch used to normalize wire length into "grid steps".
    norm_pitch: f64,
}

impl<'a> CostEvaluator<'a> {
    /// Creates an evaluator over `grid` with the given unrouted-terminal
    /// index list (and no sensitive nets).
    pub fn new(
        grid: &'a GridModel,
        unrouted_terminals: &'a [(usize, usize)],
        weights: CostWeights,
        norm_pitch: Coord,
    ) -> Self {
        CostEvaluator {
            grid,
            unrouted_terminals,
            sensitive_nets: &[],
            weights,
            norm_pitch: norm_pitch.max(1) as f64,
        }
    }

    /// Declares the sensitive nets the `w24` term penalizes proximity
    /// to (builder-style).
    pub fn with_sensitive_nets(mut self, nets: &'a [u32]) -> Self {
        self.sensitive_nets = nets;
        self
    }

    /// The weights in use.
    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// `drg` term: fraction of grid points used by routed nets within the
    /// window around the corner.
    pub fn drg(&self, corner: (usize, usize)) -> f64 {
        self.window_shares(corner).0
    }

    /// `dup` term: inverse-distance-weighted count of unrouted terminals
    /// within the window around the corner.
    pub fn dup(&self, corner: (usize, usize)) -> f64 {
        let r = self.weights.radius as i64;
        let (ci, cj) = (corner.0 as i64, corner.1 as i64);
        self.unrouted_terminals
            .iter()
            .filter_map(|&(ti, tj)| {
                let d = (ti as i64 - ci).abs() + (tj as i64 - cj).abs();
                (d <= 2 * r).then(|| 1.0 / (1.0 + d as f64))
            })
            .sum()
    }

    /// `acf` term: fraction of non-free (used or blocked) grid points in
    /// the window around the corner.
    pub fn acf(&self, corner: (usize, usize)) -> f64 {
        self.window_shares(corner).1
    }

    /// `(drg, acf)` from one [`GridModel::window_counts`] pass.
    fn window_shares(&self, corner: (usize, usize)) -> (f64, f64) {
        let (i0, i1, j0, j1) = self.window(corner);
        let cells = ((i1 - i0 + 1) * (j1 - j0 + 1)) as f64;
        let (used, congested) = self.grid.window_counts(i0, i1, j0, j1);
        (used as f64 / cells, congested as f64 / cells)
    }

    /// `dsn` term: fraction of grid points in the window used by a
    /// *sensitive* net (on either plane). Zero when no sensitive nets
    /// are declared.
    pub fn dsn(&self, corner: (usize, usize)) -> f64 {
        if self.sensitive_nets.is_empty() {
            return 0.0;
        }
        let (i0, i1, j0, j1) = self.window(corner);
        let cells = ((i1 - i0 + 1) * (j1 - j0 + 1)) as f64;
        let mut hits = 0usize;
        for j in j0..=j1 {
            for i in i0..=i1 {
                let sensitive = |s: ocr_grid::CellState| match s {
                    ocr_grid::CellState::Used(n) => self.sensitive_nets.contains(&n),
                    _ => false,
                };
                if sensitive(self.grid.state(Dir::Horizontal, i, j))
                    || sensitive(self.grid.state(Dir::Vertical, i, j))
                {
                    hits += 1;
                }
            }
        }
        hits as f64 / cells
    }

    /// Total corner penalty `w21·drg + w22·dup + w23·acf + w24·dsn`.
    pub fn corner_cost(&self, corner: (usize, usize)) -> f64 {
        let (drg, acf) = self.window_shares(corner);
        self.weights.w21 * drg
            + self.weights.w22 * self.dup(corner)
            + self.weights.w23 * acf
            + self.weights.w24 * self.dsn(corner)
    }

    /// Full path cost for a path given by its points (terminals and
    /// corners, in order). Corners are all interior points.
    pub fn path_cost(&self, points: &[Point]) -> f64 {
        let mut wl: Coord = 0;
        for w in points.windows(2) {
            wl += ocr_geom::manhattan(w[0], w[1]);
        }
        let mut c = self.weights.w1 * (wl as f64 / self.norm_pitch);
        for p in &points[1..points.len().saturating_sub(1)] {
            if let Some(idx) = self.grid.snap(*p) {
                c += self.corner_cost(idx);
            }
        }
        c
    }

    /// The wire-length term for a length of `wl` DBU.
    pub fn wl_cost(&self, wl: Coord) -> f64 {
        self.weights.w1 * (wl as f64 / self.norm_pitch)
    }

    /// Partial-cost lower bound used by the branch-and-bound DFS over the
    /// Path Selection Tree: cost accumulated so far plus the straight-line
    /// remainder.
    pub fn bound(&self, partial: f64, from: Point, target: Point) -> f64 {
        partial + self.weights.w1 * (ocr_geom::manhattan(from, target) as f64 / self.norm_pitch)
    }

    fn window(&self, corner: (usize, usize)) -> (usize, usize, usize, usize) {
        let r = self.weights.radius;
        let i0 = corner.0.saturating_sub(r);
        let j0 = corner.1.saturating_sub(r);
        let i1 = (corner.0 + r).min(self.grid.nv().saturating_sub(1));
        let j1 = (corner.1 + r).min(self.grid.nh().saturating_sub(1));
        (i0, i1, j0, j1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::TrackSet;

    fn grid10() -> GridModel {
        GridModel::new(
            Rect::new(0, 0, 100, 100),
            TrackSet::from_pitch(Interval::new(0, 100), 10),
            TrackSet::from_pitch(Interval::new(0, 100), 10),
        )
    }

    #[test]
    fn empty_grid_has_zero_corner_cost() {
        let g = grid10();
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        assert_eq!(ev.corner_cost((5, 5)), 0.0);
    }

    #[test]
    fn used_cells_raise_drg_and_acf() {
        let mut g = grid10();
        g.occupy_run(Dir::Horizontal, 5, 3, 7, 1);
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        assert!(ev.drg((5, 5)) > 0.0);
        assert!(ev.acf((5, 5)) > 0.0);
        // Far corner sees nothing.
        assert_eq!(ev.drg((0, 10)), 0.0);
    }

    #[test]
    fn unrouted_terminals_raise_dup_with_distance_decay() {
        let g = grid10();
        let terms = vec![(5usize, 5usize), (6, 5)];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let near = ev.dup((5, 5));
        let far = ev.dup((9, 9));
        assert!(near > far);
        assert!(near > 1.0, "terminal at zero distance contributes 1.0");
    }

    #[test]
    fn path_cost_prefers_shorter_paths_in_empty_grid() {
        let g = grid10();
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let short = ev.path_cost(&[Point::new(0, 0), Point::new(100, 0), Point::new(100, 100)]);
        let long = ev.path_cost(&[
            Point::new(0, 0),
            Point::new(100, 0),
            Point::new(100, 50),
            Point::new(0, 50),
            Point::new(0, 100),
            Point::new(100, 100),
        ]);
        assert!(short < long);
    }

    #[test]
    fn parse_accepts_presets_and_overrides() {
        assert_eq!(CostWeights::parse("default"), Ok(CostWeights::default()));
        assert_eq!(CostWeights::parse("dense"), Ok(CostWeights::dense()));
        assert_eq!(
            CostWeights::parse("length-only"),
            Ok(CostWeights::length_only())
        );
        let w = CostWeights::parse("w1=2.5, w24=0.5,radius=7").unwrap();
        assert_eq!(w.w1, 2.5);
        assert_eq!(w.w24, 0.5);
        assert_eq!(w.radius, 7);
        // Untouched keys keep the defaults.
        assert_eq!(w.w21, CostWeights::default().w21);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert_eq!(
            CostWeights::parse("w99=1"),
            Err(WeightsError::UnknownKey("w99".into()))
        );
        assert_eq!(
            CostWeights::parse("w1"),
            Err(WeightsError::UnknownKey("w1".into()))
        );
        assert_eq!(
            CostWeights::parse("w1=fast"),
            Err(WeightsError::BadValue {
                key: "w1".into(),
                value: "fast".into()
            })
        );
        assert_eq!(
            CostWeights::parse("radius=-1"),
            Err(WeightsError::BadValue {
                key: "radius".into(),
                value: "-1".into()
            })
        );
    }

    #[test]
    fn parse_and_validate_reject_non_finite_weights() {
        // f64's FromStr happily parses these; validate() must not.
        for spec in ["w1=nan", "w21=inf", "w23=-inf", "w24=NaN"] {
            let err = CostWeights::parse(spec).unwrap_err();
            assert!(
                matches!(err, WeightsError::NonFinite { .. }),
                "{spec}: {err:?}"
            );
        }
        let w = CostWeights {
            w22: f64::NAN,
            ..CostWeights::default()
        };
        assert_eq!(
            w.validate(),
            Err(WeightsError::NonFinite {
                field: "w22",
                value: "NaN".into()
            })
        );
        assert!(CostWeights::default().validate().is_ok());
        assert!(CostWeights::dense().validate().is_ok());
    }

    #[test]
    fn bound_is_a_lower_bound() {
        let g = grid10();
        let terms: Vec<(usize, usize)> = vec![];
        let ev = CostEvaluator::new(&g, &terms, CostWeights::default(), 10);
        let full = ev.path_cost(&[Point::new(0, 0), Point::new(100, 0), Point::new(100, 100)]);
        let b = ev.bound(0.0, Point::new(0, 0), Point::new(100, 100));
        assert!(b <= full + 1e-9);
    }
}
