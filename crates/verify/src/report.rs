//! Aggregated verification results.

use crate::violation::{Violation, ViolationKind};
use ocr_netlist::NetId;
use std::fmt;

/// Per-net verification verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetSummary {
    /// The net.
    pub net: NetId,
    /// Whether any route geometry exists for it.
    pub routed: bool,
    /// Whether the router declared it failed.
    pub declared_failed: bool,
    /// Whether all its terminals are electrically connected.
    pub connected: bool,
    /// Number of disjoint electrical components of its geometry
    /// (1 for a connected routed net; 0 when there is no geometry).
    pub components: usize,
}

/// The complete result of a verification pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Every violation found, in check order.
    pub violations: Vec<Violation>,
    /// One entry per multi-terminal net that was checked.
    pub nets: Vec<NetSummary>,
}

impl VerifyReport {
    /// `true` when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations of one kind.
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind() == kind).count()
    }

    /// Nets whose terminals are all connected.
    pub fn connected_nets(&self) -> usize {
        self.nets.iter().filter(|n| n.connected).count()
    }

    /// Nets with disconnected terminals (excluding declared failures).
    pub fn open_nets(&self) -> usize {
        self.nets
            .iter()
            .filter(|n| !n.connected && !n.declared_failed)
            .count()
    }

    /// Nets the router itself declared failed.
    pub fn failed_nets(&self) -> usize {
        self.nets.iter().filter(|n| n.declared_failed).count()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify: {} nets checked, {} connected, {} open, {} declared failed",
            self.nets.len(),
            self.connected_nets(),
            self.open_nets(),
            self.failed_nets(),
        )?;
        if self.is_clean() {
            return write!(f, "verify: CLEAN (0 violations)");
        }
        writeln!(f, "verify: {} violation(s)", self.violations.len())?;
        for kind in ViolationKind::ALL {
            let n = self.count(kind);
            if n > 0 {
                writeln!(f, "  {:>18}: {}", kind.label(), n)?;
            }
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i >= 20 {
                writeln!(f, "  … {} more", self.violations.len() - i)?;
                break;
            }
            writeln!(f, "  [{:>2}] {v}", i + 1)?;
        }
        Ok(())
    }
}
