//! The paper's benchmark suite, reproduced by statistics.
//!
//! Table 1 of the paper reports, per example, the number of nets routed
//! in Level A and the average pins per Level A net:
//!
//! | Example | Level A nets | avg pins/net |
//! |---------|--------------|--------------|
//! | ami33   | 4            | 44.25        |
//! | Xerox   | 21           | 9.19         |
//! | ex3     | 56           | 3.23         |
//!
//! ami33 and Xerox are the MCNC macro-cell benchmarks (33 cells / 123
//! nets and 10 cells / 203 nets respectively); ex3 is "from an
//! industrial macro-cell chip" with no published cell statistics, so a
//! plausible industrial size is synthesized.

use crate::random::{generate, GeneratedChip};
use crate::spec::BenchmarkSpec;

/// The ami33-equivalent: 33 cells, 123 nets; Level A = 4 nets averaging
/// 44.25 pins (power/ground/clock-class nets).
pub fn ami33_like() -> GeneratedChip {
    generate(&BenchmarkSpec {
        name: "ami33".into(),
        cells: 33,
        rows: 5,
        nets_level_a: 4,
        avg_pins_level_a: 44.25,
        nets_level_b: 119,
        avg_pins_level_b: 2.55, // ≈ 480 pins total, matching MCNC ami33
        obstacles: 8,
        locality: 0.15,
        seed: 0xA3133,
    })
}

/// The Xerox-equivalent: 10 cells, 203 nets; Level A = 21 nets averaging
/// 9.19 pins.
pub fn xerox_like() -> GeneratedChip {
    generate(&BenchmarkSpec {
        name: "Xerox".into(),
        cells: 10,
        rows: 3,
        nets_level_a: 21,
        avg_pins_level_a: 9.19,
        nets_level_b: 182,
        avg_pins_level_b: 2.76, // ≈ 696 pins total, matching MCNC xerox
        obstacles: 5,
        locality: 0.2,
        seed: 0x0E50,
    })
}

/// The ex3-equivalent industrial chip: Level A = 56 nets averaging 3.23
/// pins; overall size chosen as a plausible industrial macro-cell chip.
pub fn ex3_like() -> GeneratedChip {
    generate(&BenchmarkSpec {
        name: "ex3".into(),
        cells: 24,
        rows: 4,
        nets_level_a: 56,
        avg_pins_level_a: 3.23,
        nets_level_b: 264,
        avg_pins_level_b: 2.6,
        obstacles: 10,
        locality: 0.15,
        seed: 0xE3,
    })
}

/// The spec of the `stress` family's ×`scale` chip (`ami33x{scale}`):
/// the ami33 statistics scaled by `scale`, in `5·min(scale, 4)` rows,
/// with spec seed `0xA3133 + scale`. The `stress` table routes ×1, ×2
/// and ×4; ×8 (264 cells, 984 nets, 20 rows, seed `0xA313B`) is the chip
/// perfbench's `scale8` workload times. `ocr generate stress --scale N`
/// writes it.
pub fn stress(scale: usize) -> BenchmarkSpec {
    BenchmarkSpec {
        name: format!("ami33x{scale}"),
        cells: 33 * scale,
        rows: 5 * scale.min(4),
        nets_level_a: 4 * scale,
        avg_pins_level_a: 44.25,
        nets_level_b: 119 * scale,
        avg_pins_level_b: 2.55,
        obstacles: 8 * scale,
        locality: 0.15,
        seed: 0xA3133 + scale as u64,
    }
}

/// All three suite chips in the paper's order.
pub fn all() -> Vec<GeneratedChip> {
    vec![ami33_like(), xerox_like(), ex3_like()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ami33_matches_table1() {
        let chip = ami33_like();
        assert_eq!(chip.layout.cells.len(), 33);
        assert_eq!(chip.layout.nets.len(), 123);
        let a = chip.level_a_nets();
        assert_eq!(a.len(), 4);
        let pins: usize = a.iter().map(|&n| chip.layout.net(n).pin_count()).sum();
        assert!((pins as f64 / 4.0 - 44.25).abs() < 0.01);
    }

    #[test]
    fn xerox_matches_table1() {
        let chip = xerox_like();
        assert_eq!(chip.layout.cells.len(), 10);
        assert_eq!(chip.layout.nets.len(), 203);
        let a = chip.level_a_nets();
        assert_eq!(a.len(), 21);
        let pins: usize = a.iter().map(|&n| chip.layout.net(n).pin_count()).sum();
        assert!((pins as f64 / 21.0 - 9.19).abs() < 0.05);
    }

    #[test]
    fn ex3_matches_table1() {
        let chip = ex3_like();
        let a = chip.level_a_nets();
        assert_eq!(a.len(), 56);
        let pins: usize = a.iter().map(|&n| chip.layout.net(n).pin_count()).sum();
        assert!((pins as f64 / 56.0 - 3.23).abs() < 0.05);
    }

    #[test]
    fn all_chips_pass_audits() {
        for chip in all() {
            assert!(
                chip.layout.audit().is_empty(),
                "{}: {:?}",
                chip.spec.name,
                chip.layout.audit()
            );
            assert!(
                chip.placement.audit(&chip.layout).is_empty(),
                "{}: {:?}",
                chip.spec.name,
                chip.placement.audit(&chip.layout)
            );
        }
    }
}
