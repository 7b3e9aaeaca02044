//! Routing statistics collected by the Level B router.

use std::fmt;

/// Counters accumulated while routing a set of nets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Nets routed successfully.
    pub nets_routed: usize,
    /// Nets that failed at the maximum window.
    pub nets_failed: usize,
    /// Two-terminal connections made (≥ nets for multi-terminal nets).
    pub connections: usize,
    /// Total TIG vertices expanded by all MBFS runs — the unit of the
    /// paper's "faster than maze" comparison.
    pub expanded_vertices: usize,
    /// Total corners in the routed geometry (one of the paper's two
    /// quality measures).
    pub corners: usize,
    /// Total wire length routed (DBU).
    pub wire_length: i64,
    /// Search-window expansions that were needed (0 = every connection
    /// completed in its initial window).
    pub window_expansions: usize,
    /// Candidate min-corner paths examined by path selection.
    pub candidates_examined: usize,
    /// Connections completed by the A* maze fallback after the MBFS
    /// (incomplete by design) found no path.
    pub maze_fallbacks: usize,
    /// Grid nodes expanded by the maze fallback (kept separate from
    /// `expanded_vertices` so the TIG-vs-maze comparison stays clean).
    pub maze_expanded: usize,
    /// Routed nets ripped up to rescue blocked connections.
    pub rips: usize,
    /// Terminals sealed by obstacles on both planes at grid build time —
    /// unroutable from the start, so they are excluded from the `dup`
    /// cost term's unrouted-terminal list.
    pub doomed_terminals: usize,
    /// Rip-exclusion lists dropped because their net finally routed
    /// (stale exclusions would over-restrict later rip-up probes).
    pub exclusions_cleared: usize,
    /// Nets whose routing panicked and was isolated by salvage mode
    /// (scrubbed from the grid and declared failed as `Poisoned`).
    pub nets_poisoned: usize,
}

impl RoutingStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &RoutingStats) {
        self.nets_routed += other.nets_routed;
        self.nets_failed += other.nets_failed;
        self.connections += other.connections;
        self.expanded_vertices += other.expanded_vertices;
        self.corners += other.corners;
        self.wire_length += other.wire_length;
        self.window_expansions += other.window_expansions;
        self.candidates_examined += other.candidates_examined;
        self.maze_fallbacks += other.maze_fallbacks;
        self.maze_expanded += other.maze_expanded;
        self.rips += other.rips;
        self.doomed_terminals += other.doomed_terminals;
        self.exclusions_cleared += other.exclusions_cleared;
        self.nets_poisoned += other.nets_poisoned;
    }

    /// Average expanded vertices per two-terminal connection.
    pub fn expanded_per_connection(&self) -> f64 {
        if self.connections == 0 {
            0.0
        } else {
            self.expanded_vertices as f64 / self.connections as f64
        }
    }
}

impl fmt::Display for RoutingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routed {} nets ({} failed), {} connections, {} vertices expanded ({:.1}/conn), {} corners, wl {}",
            self.nets_routed,
            self.nets_failed,
            self.connections,
            self.expanded_vertices,
            self.expanded_per_connection(),
            self.corners,
            self.wire_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = RoutingStats {
            nets_routed: 1,
            connections: 2,
            expanded_vertices: 10,
            ..RoutingStats::default()
        };
        let b = RoutingStats {
            nets_routed: 2,
            connections: 3,
            expanded_vertices: 5,
            ..RoutingStats::default()
        };
        a.merge(&b);
        assert_eq!(a.nets_routed, 3);
        assert_eq!(a.connections, 5);
        assert_eq!(a.expanded_per_connection(), 3.0);
    }

    #[test]
    fn empty_stats_average_is_zero() {
        assert_eq!(RoutingStats::default().expanded_per_connection(), 0.0);
    }
}
