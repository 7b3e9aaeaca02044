#![warn(missing_docs)]

//! Text-format serialization for layouts, placements and routed designs.
//!
//! A simple line-oriented format (`.ocr`) that round-trips everything
//! the routing flows need, so chips can be generated once, versioned,
//! edited by hand and routed from the command line:
//!
//! ```text
//! # comment
//! die 0 0 1000 800
//! rule metal1 3 3 3            # wire_width wire_spacing via_size
//! cell alu 60 60 270 180
//! row 60 120 alu rom           # y0 height cell-names…
//! margins 60 60
//! obstacle 300 200 500 400 metal3 metal4
//! net clk critical 5           # name class criticality
//! pin clk alu 120 180 metal2   # net cell x y layer ('-' = pad)
//! ```
//!
//! # Example
//!
//! ```
//! use ocr_geom::{Layer, Point, Rect};
//! use ocr_netlist::{Layout, NetClass, Row, RowPlacement};
//! use ocr_io::{parse_chip, write_chip};
//!
//! let mut layout = Layout::new(Rect::new(0, 0, 100, 100));
//! let c = layout.add_cell("a", Rect::new(20, 20, 80, 60));
//! let n = layout.add_net("n0", NetClass::Signal);
//! layout.add_pin(n, Some(c), Point::new(30, 60), Layer::Metal2);
//! layout.add_pin(n, Some(c), Point::new(60, 20), Layer::Metal2);
//! let placement = RowPlacement::new(
//!     vec![Row { y0: 20, height: 40, cells: vec![c] }], 20, 20);
//!
//! let text = write_chip(&layout, &placement);
//! let (layout2, placement2) = parse_chip(&text)?;
//! assert_eq!(layout2.cells.len(), 1);
//! assert_eq!(placement2.rows.len(), 1);
//! assert_eq!(write_chip(&layout2, &placement2), text); // round-trip
//! # Ok::<(), ocr_io::ParseError>(())
//! ```

mod atomic;
pub mod ckpt;
pub mod job;
pub mod journal;
mod reader;
pub mod wire;

pub use atomic::{atomic_write, retry_io};

use ocr_geom::{Coord, Layer, LayerSet, Point, Rect};
use ocr_netlist::{
    CellId, Layout, NetClass, NetId, NetRoute, Obstacle, RouteSeg, RoutedDesign, Row, RowPlacement,
    Via,
};
use reader::{Cursor, NetIndex};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn layer_name(l: Layer) -> &'static str {
    match l {
        Layer::Metal1 => "metal1",
        Layer::Metal2 => "metal2",
        Layer::Metal3 => "metal3",
        Layer::Metal4 => "metal4",
    }
}

fn class_name(c: NetClass) -> &'static str {
    match c {
        NetClass::Signal => "signal",
        NetClass::Critical => "critical",
        NetClass::Timing => "timing",
        NetClass::Clock => "clock",
        NetClass::Power => "power",
    }
}

fn parse_class(cur: &mut Cursor) -> Result<NetClass, ParseError> {
    match cur.word("net class")? {
        "signal" => Ok(NetClass::Signal),
        "critical" => Ok(NetClass::Critical),
        "timing" => Ok(NetClass::Timing),
        "clock" => Ok(NetClass::Clock),
        "power" => Ok(NetClass::Power),
        other => Err(cur.err(format!("unknown net class `{other}`"))),
    }
}

/// Serializes a layout + placement into the `.ocr` text format.
///
/// # Panics
///
/// Panics if a cell or net name contains whitespace or `#` — the
/// line-oriented format uses those as separators. Keep names to
/// identifier-like tokens.
pub fn write_chip(layout: &Layout, placement: &RowPlacement) -> String {
    let name_ok = |n: &str| !n.is_empty() && !n.contains(char::is_whitespace) && !n.contains('#');
    for cell in &layout.cells {
        assert!(
            name_ok(&cell.name),
            "cell name {:?} not serializable",
            cell.name
        );
    }
    for net in &layout.nets {
        assert!(
            name_ok(&net.name),
            "net name {:?} not serializable",
            net.name
        );
    }
    let mut s = String::new();
    let d = layout.die;
    let _ = writeln!(s, "die {} {} {} {}", d.x0(), d.y0(), d.x1(), d.y1());
    for l in Layer::ALL {
        let r = layout.rules.layer(l);
        let _ = writeln!(
            s,
            "rule {} {} {} {}",
            layer_name(l),
            r.wire_width,
            r.wire_spacing,
            r.via_size
        );
    }
    for cell in &layout.cells {
        let o = cell.outline;
        let _ = writeln!(
            s,
            "cell {} {} {} {} {}",
            cell.name,
            o.x0(),
            o.y0(),
            o.x1(),
            o.y1()
        );
    }
    for row in &placement.rows {
        let names: Vec<&str> = row
            .cells
            .iter()
            .map(|&c| layout.cell(c).name.as_str())
            .collect();
        let _ = writeln!(s, "row {} {} {}", row.y0, row.height, names.join(" "));
    }
    let _ = writeln!(
        s,
        "margins {} {}",
        placement.left_margin, placement.right_margin
    );
    for ob in &layout.obstacles {
        let r = ob.rect;
        let layers: Vec<&str> = ob.layers.iter().map(layer_name).collect();
        let _ = writeln!(
            s,
            "obstacle {} {} {} {} {}",
            r.x0(),
            r.y0(),
            r.x1(),
            r.y1(),
            layers.join(" ")
        );
    }
    for net in &layout.nets {
        let _ = writeln!(
            s,
            "net {} {} {}",
            net.name,
            class_name(net.class),
            net.criticality
        );
        for &pid in &net.pins {
            let pin = layout.pin(pid);
            let owner = pin
                .cell
                .map(|c| layout.cell(c).name.clone())
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                s,
                "pin {} {} {} {} {}",
                net.name,
                owner,
                pin.position.x,
                pin.position.y,
                layer_name(pin.layer)
            );
        }
    }
    s
}

/// Parses the `.ocr` text format back into a layout + placement.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line number for any
/// malformed directive, unknown name, or missing field.
pub fn parse_chip(text: &str) -> Result<(Layout, RowPlacement), ParseError> {
    let mut layout = Layout::new(Rect::new(0, 0, 1, 1));
    let mut rows: Vec<Row> = Vec::new();
    let mut margins: (Coord, Coord) = (0, 0);
    let mut cells_by_name: HashMap<&str, CellId> = HashMap::new();
    let mut nets = NetIndex::new();
    let rect = |cur: &mut Cursor| -> Result<Rect, ParseError> {
        let (x0, y0) = (cur.num()?, cur.num()?);
        Ok(Rect::new(x0, y0, cur.num()?, cur.num()?))
    };

    for (directive, mut cur) in reader::lines(text) {
        match directive {
            "die" => layout.die = rect(&mut cur)?,
            "rule" => {
                let r = layout.rules.layer_mut(cur.layer("layer")?);
                r.wire_width = cur.num()?;
                r.wire_spacing = cur.num()?;
                r.via_size = cur.num()?;
            }
            "cell" => {
                let name = cur.word("cell name")?;
                if cells_by_name.contains_key(name) {
                    return Err(cur.err(format!("duplicate cell `{name}`")));
                }
                let outline = rect(&mut cur)?;
                cells_by_name.insert(name, layout.add_cell(name, outline));
            }
            "row" => {
                let (y0, height) = (cur.num()?, cur.num()?);
                let mut cells = Vec::new();
                while let Some(name) = cur.next() {
                    let id = cells_by_name
                        .get(name)
                        .ok_or_else(|| cur.err(format!("unknown cell `{name}` in row")))?;
                    cells.push(*id);
                }
                rows.push(Row { y0, height, cells });
            }
            "margins" => margins = (cur.num()?, cur.num()?),
            "obstacle" => {
                let rect = rect(&mut cur)?;
                let mut layers = LayerSet::empty();
                while let Some(l) = cur.next() {
                    layers.insert(cur.layer_named(l)?);
                }
                if layers.is_empty() {
                    return Err(cur.err("obstacle needs at least one layer"));
                }
                layout.add_obstacle(Obstacle::new(rect, layers));
            }
            "net" => {
                let name = cur.word("net name")?;
                if nets.contains_key(name) {
                    return Err(cur.err(format!("duplicate net `{name}`")));
                }
                let class = parse_class(&mut cur)?;
                let crit = cur.next().unwrap_or("0");
                let crit = cur.parse(crit, "criticality")?;
                let id = layout.add_net(name, class);
                layout.net_mut(id).criticality = crit;
                nets.insert(name, id);
            }
            "pin" => {
                let net = cur.net(&nets)?;
                let owner = cur.word("cell")?;
                let cell = if owner == "-" {
                    None
                } else {
                    let id = cells_by_name
                        .get(owner)
                        .ok_or_else(|| cur.err(format!("unknown cell `{owner}` for pin")))?;
                    Some(*id)
                };
                let at = Point::new(cur.num()?, cur.num()?);
                layout.add_pin(net, cell, at, cur.layer("pin layer")?);
            }
            other => return Err(cur.err(format!("unknown directive `{other}`"))),
        }
        // Every directive has a fixed number of fields, or reads to the
        // end of its line.
        cur.end()?;
    }
    Ok((layout, RowPlacement::new(rows, margins.0, margins.1)))
}

/// Reads, parses and audits a chip file: the one loader behind
/// `ocr route`/`verify`/`stats` and the serve intake. A layout or
/// placement that parses but fails its audit is rejected here, before
/// any flow sees it.
///
/// # Errors
///
/// A `<path>: …` message for an unreadable file, a parse error, or a
/// `<path>: layout audit failed: …` / `<path>: placement audit failed:
/// …` list of the audit's problems.
pub fn load_chip(path: &Path) -> Result<(Layout, RowPlacement), String> {
    let at = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{at}: {e}"))?;
    let (layout, placement) = parse_chip(&text).map_err(|e| format!("{at}: {e}"))?;
    let problems = layout.audit();
    if !problems.is_empty() {
        return Err(format!(
            "{at}: layout audit failed: {}",
            problems.join("; ")
        ));
    }
    let problems = placement.audit(&layout);
    if !problems.is_empty() {
        return Err(format!(
            "{at}: placement audit failed: {}",
            problems.join("; ")
        ));
    }
    Ok((layout, placement))
}

/// Writes `route`'s geometry for net `name`: a `wire` line per segment,
/// then a `via` line per via. The routes file and the committed routes
/// of a checkpoint share this grammar.
fn write_route(s: &mut String, name: &str, route: &NetRoute) {
    for seg in &route.segs {
        let (a, b) = (seg.a(), seg.b());
        let layer = layer_name(seg.layer());
        let _ = writeln!(s, "wire {name} {layer} {} {} {} {}", a.x, a.y, b.x, b.y);
    }
    for via in &route.vias {
        let (lower, upper) = (layer_name(via.lower), layer_name(via.upper));
        let _ = writeln!(s, "via {name} {lower} {upper} {} {}", via.at.x, via.at.y);
    }
}

/// One `wire` or `via` line's geometry.
enum Geometry {
    Wire(RouteSeg),
    Via(Via),
}

impl Geometry {
    fn add_to(self, route: &mut NetRoute) {
        match self {
            Geometry::Wire(seg) => route.segs.push(seg),
            Geometry::Via(via) => route.vias.push(via),
        }
    }
}

/// Parses the rest of a `wire` or `via` line (its `directive`), as
/// [`write_route`] writes it, into its net and geometry.
fn parse_route_line(
    directive: &str,
    cur: &mut Cursor,
    nets: &NetIndex,
) -> Result<(NetId, Geometry), ParseError> {
    let net = cur.net(nets)?;
    let lower = cur.layer("layer")?;
    if directive == "wire" {
        let [x0, y0, x1, y1] = coords(cur, "wire needs 4 coordinates")?;
        // `RouteSeg::new` asserts this; check first so corrupt
        // coordinates surface as a ParseError, not a panic.
        if x0 != x1 && y0 != y1 {
            return Err(cur.err("wire endpoints are not axis-parallel"));
        }
        let seg = RouteSeg::new(Point::new(x0, y0), Point::new(x1, y1), lower);
        Ok((net, Geometry::Wire(seg)))
    } else {
        let upper = cur.layer("layer")?;
        let [x, y] = coords(cur, "via needs 2 coordinates")?;
        Ok((net, Geometry::Via(Via::new(Point::new(x, y), lower, upper))))
    }
}

/// The rest of the line as exactly `N` coordinates: a malformed token
/// is reported before a wrong count.
fn coords<const N: usize>(cur: &mut Cursor, wrong_count: &str) -> Result<[Coord; N], ParseError> {
    let mut out = [0; N];
    let mut count = 0;
    while let Some(token) = cur.next() {
        let value = cur.parse(token, "number")?;
        if let Some(slot) = out.get_mut(count) {
            *slot = value;
        }
        count += 1;
    }
    if count != N {
        return Err(cur.err(wrong_count));
    }
    Ok(out)
}

/// Serializes a routed design's geometry (one line per segment or via)
/// for inspection or downstream consumption.
pub fn write_routes(layout: &Layout, design: &RoutedDesign) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# routed design: die {} {} {} {}",
        design.die.x0(),
        design.die.y0(),
        design.die.x1(),
        design.die.y1()
    );
    for (net, route) in design.iter_routes() {
        write_route(&mut s, &layout.net(net).name, route);
    }
    for &net in &design.failed {
        let _ = writeln!(s, "failed {}", layout.net(net).name);
    }
    s
}

/// Parses routed geometry written by [`write_routes`] back into a
/// [`RoutedDesign`] over `layout` (used for round-trip checks and for
/// loading saved routing results).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed lines or unknown net names.
pub fn parse_routes(layout: &Layout, text: &str) -> Result<RoutedDesign, ParseError> {
    let mut design = RoutedDesign::new(layout.die, layout.nets.len());
    let nets = reader::net_index(layout);
    let mut routes: HashMap<NetId, NetRoute> = HashMap::new();
    for (directive, mut cur) in reader::lines(text) {
        match directive {
            "wire" | "via" => {
                let (net, geometry) = parse_route_line(directive, &mut cur, &nets)?;
                geometry.add_to(routes.entry(net).or_default());
            }
            "failed" => design.set_failed(cur.net(&nets)?),
            other => return Err(cur.err(format!("unknown directive `{other}`"))),
        }
        cur.end()?;
    }
    for (net, route) in routes {
        design.set_route(net, route);
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Layout, RowPlacement) {
        let mut layout = Layout::new(Rect::new(0, 0, 300, 200));
        let a = layout.add_cell("alu", Rect::new(40, 40, 140, 100));
        let b = layout.add_cell("rom", Rect::new(160, 40, 260, 100));
        let n0 = layout.add_net("clk", NetClass::Critical);
        layout.net_mut(n0).criticality = 7;
        layout.add_pin(n0, Some(a), Point::new(60, 100), Layer::Metal2);
        layout.add_pin(n0, Some(b), Point::new(200, 100), Layer::Metal2);
        let n1 = layout.add_net("d0", NetClass::Signal);
        layout.add_pin(n1, Some(a), Point::new(80, 40), Layer::Metal1);
        layout.add_pin(n1, None, Point::new(280, 200), Layer::Metal2);
        layout.add_obstacle(Obstacle::new(
            Rect::new(50, 50, 70, 70),
            LayerSet::of(&[Layer::Metal3, Layer::Metal4]),
        ));
        let placement = RowPlacement::new(
            vec![Row {
                y0: 40,
                height: 60,
                cells: vec![a, b],
            }],
            40,
            40,
        );
        (layout, placement)
    }

    #[test]
    fn chip_round_trip_is_exact() {
        let (layout, placement) = sample();
        let text = write_chip(&layout, &placement);
        let (l2, p2) = parse_chip(&text).expect("parses");
        assert_eq!(write_chip(&l2, &p2), text);
        assert_eq!(l2.die, layout.die);
        assert_eq!(l2.cells.len(), 2);
        assert_eq!(l2.nets.len(), 2);
        assert_eq!(l2.pins.len(), 4);
        assert_eq!(l2.net(NetId(0)).criticality, 7);
        assert_eq!(l2.obstacles.len(), 1);
        assert_eq!(p2.left_margin, 40);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# header\ndie 0 0 10 10  # trailing\n\n";
        let (l, _) = parse_chip(text).expect("parses");
        assert_eq!(l.die, Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "die 0 0 10 10\nfrobnicate 3";
        let e = parse_chip(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn unknown_references_are_rejected() {
        let e = parse_chip("pin nosuch - 0 0 metal1").unwrap_err();
        assert!(e.message.contains("unknown net"));
        let e2 = parse_chip("net a signal\npin a ghost 0 0 metal1").unwrap_err();
        assert!(e2.message.contains("unknown cell"));
        let e3 = parse_chip("row 0 10 ghost").unwrap_err();
        assert!(e3.message.contains("unknown cell"));
    }

    #[test]
    fn routes_round_trip() {
        let (layout, _) = sample();
        let mut design = RoutedDesign::new(layout.die, layout.nets.len());
        let mut r = NetRoute::new();
        r.segs.push(RouteSeg::new(
            Point::new(60, 100),
            Point::new(200, 100),
            Layer::Metal3,
        ));
        r.vias
            .push(Via::new(Point::new(60, 100), Layer::Metal2, Layer::Metal3));
        design.set_route(NetId(0), r);
        design.set_failed(NetId(1));
        let text = write_routes(&layout, &design);
        let back = parse_routes(&layout, &text).expect("parses");
        assert_eq!(back.routed_count(), 1);
        assert_eq!(back.failed, vec![NetId(1)]);
        assert_eq!(
            back.route(NetId(0)).expect("route").wire_length(),
            design.route(NetId(0)).expect("route").wire_length()
        );
        assert_eq!(write_routes(&layout, &back), text);
    }

    #[test]
    #[should_panic(expected = "not serializable")]
    fn names_with_whitespace_are_rejected() {
        let mut layout = Layout::new(Rect::new(0, 0, 10, 10));
        layout.add_cell("two words", Rect::new(0, 0, 5, 5));
        let placement = RowPlacement::new(vec![], 0, 0);
        let _ = write_chip(&layout, &placement);
    }

    #[test]
    fn bad_layer_is_reported() {
        let e = parse_chip("rule metal9 1 1 1").unwrap_err();
        assert!(e.message.contains("unknown layer"));
    }

    #[test]
    fn bare_directives_error_instead_of_panicking() {
        let (layout, _) = sample();
        // Truncated route lines were once a reachable panic (the name
        // was re-tokenized from the raw line with an `expect`).
        let e = parse_routes(&layout, "wire").unwrap_err();
        assert!(e.message.contains("missing net"), "{e}");
        let e = parse_routes(&layout, "via clk").unwrap_err();
        assert!(e.message.contains("missing layer"), "{e}");
        let e = parse_routes(&layout, "wire clk metal3 1 2 3").unwrap_err();
        assert!(e.message.contains("4 coordinates"), "{e}");
        let e = parse_routes(&layout, "failed").unwrap_err();
        assert!(e.message.contains("missing net"), "{e}");
        // Diagonal endpoints would trip `RouteSeg::new`'s assert.
        let e = parse_routes(&layout, "wire clk metal3 1 2 3 4").unwrap_err();
        assert!(e.message.contains("axis-parallel"), "{e}");
    }

    #[test]
    fn route_names_are_taken_from_comment_stripped_content() {
        let (layout, _) = sample();
        // The net name after an inline comment must not be read: the
        // whole line degrades to the bare directive (an error), not a
        // lookup of `#`.
        let e = parse_routes(&layout, "wire # clk metal3 0 0 1 0").unwrap_err();
        assert!(e.message.contains("missing net"), "{e}");
        // And a commented tail after valid fields is simply ignored.
        let d = parse_routes(&layout, "via clk metal2 metal3 60 100 # tail").expect("parses");
        assert_eq!(d.route(NetId(0)).expect("route").vias.len(), 1);
    }
}
