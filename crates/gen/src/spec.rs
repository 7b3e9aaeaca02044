//! Benchmark specifications.

use std::fmt;

/// Parameters of a synthetic benchmark layout.
///
/// The suite presets ([`crate::suite`]) fill these with the paper's
/// Table 1 statistics; [`crate::generate`] turns a spec into a layout.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name.
    pub name: String,
    /// Number of macro-cells.
    pub cells: usize,
    /// Number of cell rows.
    pub rows: usize,
    /// Number of Level A nets (routed in channels; class `Critical`).
    pub nets_level_a: usize,
    /// Average pins per Level A net (Table 1's parenthesized figure).
    pub avg_pins_level_a: f64,
    /// Number of Level B nets (routed over-cell; class `Signal`).
    pub nets_level_b: usize,
    /// Average pins per Level B net.
    pub avg_pins_level_b: f64,
    /// Number of over-cell obstacle rectangles (power trunks, sensitive
    /// circuits) to scatter inside cells.
    pub obstacles: usize,
    /// Locality of Level B nets: the fraction of free pin slots
    /// (nearest-first) each net draws its pins from. Every pin after a
    /// net's anchor is drawn uniformly from the nearest
    /// `⌈locality·free⌉` free slots (at least 8) by Manhattan distance
    /// to the anchor; slots at equal distance rank in slot order, so
    /// the window, and with it the chip, is a function of the seed.
    /// `0.0` forces maximally local nets, `1.0` uniform random pins.
    /// Macro-cell signal nets are predominantly local with a
    /// long-distance tail, so suite presets use ~0.1–0.2.
    pub locality: f64,
    /// RNG seed (same seed → identical layout).
    pub seed: u64,
}

impl BenchmarkSpec {
    /// Total net count.
    pub fn nets(&self) -> usize {
        self.nets_level_a + self.nets_level_b
    }

    /// Expected total pin count (rounded per set).
    pub fn pins(&self) -> usize {
        (self.avg_pins_level_a * self.nets_level_a as f64).round() as usize
            + (self.avg_pins_level_b * self.nets_level_b as f64).round() as usize
    }
}

impl fmt::Display for BenchmarkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cells, {} nets ({} level A @ {:.2} pins), ~{} pins",
            self.name,
            self.cells,
            self.nets(),
            self.nets_level_a,
            self.avg_pins_level_a,
            self.pins()
        )
    }
}

/// Splits `total` pins across `n` nets as evenly as possible with a
/// minimum of 2 pins per net.
pub(crate) fn distribute_pins(total: usize, n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let total = total.max(2 * n);
    let base = total / n;
    let extra = total % n;
    (0..n).map(|k| base + usize::from(k < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_preserves_total_and_minimum() {
        let v = distribute_pins(177, 4);
        assert_eq!(v.iter().sum::<usize>(), 177);
        assert_eq!(v, vec![45, 44, 44, 44]);
        let w = distribute_pins(3, 4); // below the 2-per-net minimum
        assert!(w.iter().all(|&p| p >= 2));
    }

    #[test]
    fn spec_totals() {
        let s = BenchmarkSpec {
            name: "t".into(),
            cells: 4,
            rows: 2,
            nets_level_a: 4,
            avg_pins_level_a: 44.25,
            nets_level_b: 119,
            avg_pins_level_b: 2.5,
            obstacles: 0,
            locality: 0.2,
            seed: 1,
        };
        assert_eq!(s.nets(), 123);
        assert_eq!(s.pins(), 177 + 298);
    }
}
