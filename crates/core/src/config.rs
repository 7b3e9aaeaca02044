//! Level B router configuration.

use crate::cost::CostWeights;
use crate::order::NetOrdering;

/// Configuration of the Level B over-cell router.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelBConfig {
    /// Weights of the path-selection cost function.
    pub weights: CostWeights,
    /// Net processing order (the paper defaults to longest distance
    /// first; a user criterion such as criticality can be exercised).
    pub ordering: NetOrdering,
    /// Nets whose routed wiring other paths should keep away from
    /// (activates the `w24` cost term — the paper's "prevent parallel
    /// routing of sensitive nets" example). Empty by default.
    pub sensitive_nets: Vec<ocr_netlist::NetId>,
    /// Rip-up-and-reroute budget: how many times the router may rip the
    /// nets blocking an unroutable connection (identified by a soft maze
    /// search) and re-queue them. `0` disables rip-up. Ripped victims
    /// are re-routed after the rescued net; each net is retried at most
    /// four times (`MAX_RETRIES_PER_NET` in [`crate::level_b`]).
    pub rip_up_budget: usize,
    /// Fall back to a complete A* maze search when the MBFS finds
    /// no path at the full window. The MBFS's "each vertex is examined
    /// exactly once" rule makes it incomplete on congested grids (it
    /// cannot revisit a track); the fallback guarantees completion
    /// whenever a path exists, preserving the paper's assumption that
    /// "the solution space for level B routing guarantees 100% routing
    /// completion".
    pub maze_fallback: bool,
    /// Salvage mode: setup errors (off-grid or conflicting terminals)
    /// and per-net panics degrade the affected net — recorded with a
    /// typed reason in [`crate::degrade::Degradation`] and declared
    /// failed in the design — instead of aborting the whole run. The
    /// grid is scrubbed of any partial wiring, so every salvaged route
    /// remains oracle-clean. Off by default; flows turn it on through
    /// [`crate::flow::FlowOptions::salvage`].
    pub salvage: bool,
}

impl Default for LevelBConfig {
    fn default() -> Self {
        LevelBConfig {
            weights: CostWeights::default(),
            ordering: NetOrdering::LongestFirst,
            sensitive_nets: Vec::new(),
            rip_up_budget: 16,
            maze_fallback: true,
            salvage: false,
        }
    }
}

impl LevelBConfig {
    /// Preset for dense layouts: the paper recommends weighting the
    /// blocking-avoidance term higher "for routing problems with dense
    /// net distributions".
    pub fn dense() -> Self {
        LevelBConfig {
            weights: CostWeights::dense(),
            ..LevelBConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_preset_raises_blocking_weights() {
        let d = LevelBConfig::dense();
        let s = LevelBConfig::default();
        assert!(d.weights.w21 > s.weights.w21);
        assert!(d.weights.w22 > s.weights.w22);
        assert!(d.weights.w23 > s.weights.w23);
        assert_eq!(d.weights.w1, s.weights.w1);
    }
}
