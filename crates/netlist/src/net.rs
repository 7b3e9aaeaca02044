//! Nets and net classes.

use crate::PinId;
use std::fmt;

/// Index of a [`Net`] within a [`Layout`](crate::Layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Zero-based index into [`Layout::nets`](crate::Layout::nets).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

/// Functional classification of a net.
///
/// The paper's net partitioning examples drive the set A / set B split off
/// exactly these categories: "critical nets and timing nets were routed in
/// level A, while all other nets were routed in level B", and
/// "either set A or set B may be used exclusively for control nets,
/// critical nets, or power and ground nets".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetClass {
    /// Ordinary signal net.
    #[default]
    Signal,
    /// Delay-critical net.
    Critical,
    /// Timing/control net (clocks enables, strobes).
    Timing,
    /// Clock distribution net.
    Clock,
    /// Power or ground net.
    Power,
}

impl NetClass {
    /// `true` for the classes the paper's experiments route in Level A
    /// (critical and timing nets, plus clocks which are timing nets).
    #[inline]
    pub fn is_level_a_default(self) -> bool {
        matches!(
            self,
            NetClass::Critical | NetClass::Timing | NetClass::Clock
        )
    }
}

impl fmt::Display for NetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetClass::Signal => "signal",
            NetClass::Critical => "critical",
            NetClass::Timing => "timing",
            NetClass::Clock => "clock",
            NetClass::Power => "power",
        };
        f.write_str(s)
    }
}

/// A net: a set of terminals that must be made electrically common.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Terminals of this net (two or more for a routable net).
    pub pins: Vec<PinId>,
    /// Functional class used by partitioning and ordering policies.
    pub class: NetClass,
    /// User-assigned criticality for custom net ordering; larger routes
    /// earlier under criticality ordering. The paper: "The option of a
    /// user specified ordering criterion, such as net criticality, can be
    /// exercised."
    pub criticality: i32,
}

impl Net {
    /// Creates an empty net of the given class.
    pub fn new(name: impl Into<String>, class: NetClass) -> Self {
        Net {
            name: name.into(),
            pins: Vec::new(),
            class,
            criticality: 0,
        }
    }

    /// Number of terminals.
    #[inline]
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} pins, {})",
            self.name,
            self.pins.len(),
            self.class
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_class_is_signal() {
        assert_eq!(NetClass::default(), NetClass::Signal);
    }

    #[test]
    fn level_a_default_classes() {
        assert!(NetClass::Critical.is_level_a_default());
        assert!(NetClass::Timing.is_level_a_default());
        assert!(NetClass::Clock.is_level_a_default());
        assert!(!NetClass::Signal.is_level_a_default());
        assert!(!NetClass::Power.is_level_a_default());
    }
}
