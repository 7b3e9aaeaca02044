//! The chip-level layout container.

use crate::{Cell, CellId, DesignRules, Net, NetClass, NetId, Pin, PinId};
use ocr_geom::{Layer, LayerSet, Point, Rect};
use std::fmt;

/// A region excluded from routing on some layers.
///
/// Obstacles model everything the paper lists: power/ground trunks,
/// limited metal3/metal4 usage inside macro-cells, and user-specified
/// keep-outs over sensitive circuits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Obstacle {
    /// Blocked region in chip coordinates.
    pub rect: Rect,
    /// The layers on which the region is unusable.
    pub layers: LayerSet,
}

impl Obstacle {
    /// Creates an obstacle blocking `rect` on `layers`.
    pub fn new(rect: Rect, layers: LayerSet) -> Self {
        Obstacle { rect, layers }
    }

    /// An obstacle blocking both Level B layers (the common case).
    pub fn over_cell(rect: Rect) -> Self {
        Obstacle {
            rect,
            layers: LayerSet::level_b(),
        }
    }

    /// `true` if this obstacle blocks `layer`.
    #[inline]
    pub fn blocks(&self, layer: Layer) -> bool {
        self.layers.contains(layer)
    }
}

impl fmt::Display for Obstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obstacle {} on {}", self.rect, self.layers)
    }
}

/// A complete macro-cell layout: die, placed cells, nets, terminals,
/// obstacles and the process design rules.
///
/// `Layout` is an arena: cells, nets and pins are stored in `Vec`s and
/// addressed by typed ids ([`CellId`], [`NetId`], [`PinId`]).
#[derive(Clone, Debug)]
pub struct Layout {
    /// Die boundary. Routing must stay inside.
    pub die: Rect,
    /// Placed macro-cells.
    pub cells: Vec<Cell>,
    /// All nets.
    pub nets: Vec<Net>,
    /// All terminals.
    pub pins: Vec<Pin>,
    /// Routing keep-outs.
    pub obstacles: Vec<Obstacle>,
    /// Process design rules.
    pub rules: DesignRules,
}

impl Layout {
    /// Creates an empty layout on the given die with default rules.
    pub fn new(die: Rect) -> Self {
        Layout {
            die,
            cells: Vec::new(),
            nets: Vec::new(),
            pins: Vec::new(),
            obstacles: Vec::new(),
            rules: DesignRules::default(),
        }
    }

    /// Adds a placed cell and returns its id.
    pub fn add_cell(&mut self, name: impl Into<String>, outline: Rect) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell::new(name, outline));
        id
    }

    /// Adds an empty net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>, class: NetClass) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net::new(name, class));
        id
    }

    /// Adds a terminal to `net` and returns the new pin id.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn add_pin(
        &mut self,
        net: NetId,
        cell: Option<CellId>,
        position: Point,
        layer: Layer,
    ) -> PinId {
        let id = PinId(self.pins.len() as u32);
        self.pins.push(Pin::new(net, cell, position, layer));
        self.nets[net.index()].pins.push(id);
        id
    }

    /// Adds a routing keep-out.
    pub fn add_obstacle(&mut self, obstacle: Obstacle) {
        self.obstacles.push(obstacle);
    }

    /// Shared access to a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Mutable access to a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        &mut self.nets[id.index()]
    }

    /// Shared access to a pin.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Shared access to a cell.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Bounding box of a net's terminals, or `None` for a pinless net.
    pub fn net_bbox(&self, id: NetId) -> Option<Rect> {
        Rect::bounding(self.net(id).pins.iter().map(|&p| self.pin(p).position))
    }

    /// Half-perimeter wire-length estimate of a net (0 for < 2 pins).
    pub fn net_hpwl(&self, id: NetId) -> i64 {
        self.net_bbox(id).map_or(0, |r| r.half_perimeter())
    }

    /// Total pin count across all nets (a Table 1 statistic).
    pub fn total_pins(&self) -> usize {
        self.pins.len()
    }

    /// Basic structural sanity: pins in range, pins inside die, cells
    /// inside die, nets with ≥ 2 pins. Returns human-readable problems.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if !self.die.contains_rect(&cell.outline) {
                problems.push(format!(
                    "cell#{i} {} outside die {}",
                    cell.outline, self.die
                ));
            }
        }
        for (i, pin) in self.pins.iter().enumerate() {
            if !self.die.contains(pin.position) {
                problems.push(format!("pin#{i} at {} outside die", pin.position));
            }
            if pin.net.index() >= self.nets.len() {
                problems.push(format!("pin#{i} references missing {}", pin.net));
            }
        }
        for (i, net) in self.nets.iter().enumerate() {
            if net.pins.len() < 2 {
                problems.push(format!(
                    "net#{i} `{}` has {} pin(s)",
                    net.name,
                    net.pins.len()
                ));
            }
            for &p in &net.pins {
                if p.index() >= self.pins.len() {
                    problems.push(format!("net#{i} references missing {p}"));
                } else if self.pin(p).net.index() != i {
                    problems.push(format!("net#{i} / {p} back-reference mismatch"));
                }
            }
        }
        problems
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout: die {}, {} cells, {} nets, {} pins, {} obstacles",
            self.die,
            self.cells.len(),
            self.nets.len(),
            self.pins.len(),
            self.obstacles.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        let c = l.add_cell("a", Rect::new(10, 10, 40, 40));
        let n = l.add_net("n1", NetClass::Signal);
        l.add_pin(n, Some(c), Point::new(10, 20), Layer::Metal2);
        l.add_pin(n, None, Point::new(90, 90), Layer::Metal2);
        l
    }

    #[test]
    fn audit_clean_layout() {
        assert!(small_layout().audit().is_empty());
    }

    #[test]
    fn audit_catches_single_pin_net() {
        let mut l = small_layout();
        let n = l.add_net("lonely", NetClass::Signal);
        l.add_pin(n, None, Point::new(1, 1), Layer::Metal1);
        assert_eq!(l.audit().len(), 1);
    }

    #[test]
    fn audit_catches_out_of_die_cell() {
        let mut l = small_layout();
        l.add_cell("big", Rect::new(50, 50, 200, 200));
        assert!(!l.audit().is_empty());
    }

    #[test]
    fn hpwl_matches_bbox() {
        let l = small_layout();
        assert_eq!(l.net_hpwl(NetId(0)), 80 + 70);
    }

    #[test]
    fn obstacle_layer_blocking() {
        let ob = Obstacle::over_cell(Rect::new(0, 0, 5, 5));
        assert!(ob.blocks(Layer::Metal3));
        assert!(ob.blocks(Layer::Metal4));
        assert!(!ob.blocks(Layer::Metal1));
    }
}
