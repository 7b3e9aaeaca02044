//! The `ocr-ckpt-v1` checkpoint text format: mid-run flow progress,
//! serialized at net-commit boundaries so an interrupted run can resume
//! and finish byte-identical to an uninterrupted one.
//!
//! A checkpoint is line-oriented like the rest of the `.ocr` family —
//! `#` starts a comment, tokens are whitespace-separated, net names
//! (not ids) are the cross-file references so a checkpoint stays
//! readable next to its chip file:
//!
//! ```text
//! ocr-ckpt-v1
//! flow overcell
//! chip 00a1b2c3d4e5f607        # fnv64 of the canonical chip text
//! salvage 0
//! steps 27                     # run-control steps charged so far
//! rips-left 14
//! stat nets_routed 0           # router counters, one per field
//! routed n3                    # committed nets, in net-set order
//! wire n3 metal3 40 80 160 80  # geometry: the routes file's codec
//! via n3 metal3 metal4 160 80
//! failed n9 unroutable         # failed nets with their reason token
//! pending n1                   # still-queued nets, in queue order
//! unrouted n1 4 7              # unrouted terminal cells, verbatim order
//! excl n1 n3                   # rip-up exclusions per net
//! retry n1 2                   # nonzero retry counts
//! ```
//!
//! The `pending` and `unrouted` orders are load-bearing: the router's
//! queue discipline and its floating-point duplication-cost summation
//! both depend on them, so the parser preserves file order exactly.
//! Like the rest of this crate, the parser never panics on arbitrary
//! input — every malformed line surfaces as a [`ParseError`].

use crate::reader::{self, Cursor};
use crate::{parse_route_line, write_route, ParseError};
use ocr_netlist::{Layout, NetId, NetRoute};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// A parsed `ocr-ckpt-v1` document. Net references are resolved against
/// the layout the checkpoint was written for; degradation reasons stay
/// raw strings at this layer (the core crate owns the typed mapping).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointDoc {
    /// Flow name the run used (`overcell`, `channel2`, …).
    pub flow: String,
    /// FNV-1a 64 hash of the canonical chip serialization, so a resume
    /// against a different chip is rejected up front.
    pub chip_hash: u64,
    /// Whether the checkpointed run had salvage mode on.
    pub salvage: bool,
    /// Run-control steps charged when the checkpoint was written.
    pub steps: u64,
    /// Remaining Level B rip-up budget.
    pub rips_left: u64,
    /// Router counters by field name.
    pub stats: Vec<(String, i64)>,
    /// Committed routes, in the order of the Level B net set.
    pub routed: Vec<(NetId, NetRoute)>,
    /// Failed nets with their degradation reason token, in order.
    pub failed: Vec<(NetId, String)>,
    /// Nets still pending, in queue order (an interrupted net first).
    pub pending: Vec<NetId>,
    /// Unrouted-terminal cells `(net, grid i, grid j)`, verbatim order.
    pub unrouted: Vec<(NetId, usize, usize)>,
    /// Rip-up exclusions: per net, the victims it may not rip again.
    pub exclusions: Vec<(NetId, Vec<NetId>)>,
    /// Per-net retry counts (only nonzero entries).
    pub retries: Vec<(NetId, u64)>,
}

/// FNV-1a 64-bit hash of `text` — the chip identity fingerprint
/// recorded in checkpoint headers.
pub fn fnv1a_64(text: &str) -> u64 {
    crate::wire::fnv1a_64_bytes(text.as_bytes())
}

/// Replaces characters that would corrupt the line-oriented format
/// (comment starts, line breaks) in free-text fields such as panic
/// messages inside degradation reasons.
fn sanitize(field: &str) -> String {
    crate::wire::one_line(field).replace('#', "?")
}

/// Serializes a checkpoint for `layout` into `ocr-ckpt-v1` text.
pub fn write_checkpoint(layout: &Layout, doc: &CheckpointDoc) -> String {
    let name = |net: NetId| layout.net(net).name.as_str();
    let mut s = String::new();
    let _ = writeln!(s, "ocr-ckpt-v1");
    let _ = writeln!(s, "flow {}", doc.flow);
    let _ = writeln!(s, "chip {:016x}", doc.chip_hash);
    let _ = writeln!(s, "salvage {}", u8::from(doc.salvage));
    let _ = writeln!(s, "steps {}", doc.steps);
    let _ = writeln!(s, "rips-left {}", doc.rips_left);
    for (stat, value) in &doc.stats {
        let _ = writeln!(s, "stat {stat} {value}");
    }
    for (net, route) in &doc.routed {
        let _ = writeln!(s, "routed {}", name(*net));
        write_route(&mut s, name(*net), route);
    }
    for (net, reason) in &doc.failed {
        let _ = writeln!(s, "failed {} {}", name(*net), sanitize(reason));
    }
    for net in &doc.pending {
        let _ = writeln!(s, "pending {}", name(*net));
    }
    for &(net, i, j) in &doc.unrouted {
        let _ = writeln!(s, "unrouted {} {i} {j}", name(net));
    }
    for (net, victims) in &doc.exclusions {
        let victims: Vec<&str> = victims.iter().map(|&v| name(v)).collect();
        let _ = writeln!(s, "excl {} {}", name(*net), victims.join(" "));
    }
    for &(net, count) in &doc.retries {
        let _ = writeln!(s, "retry {} {count}", name(net));
    }
    s
}

/// Parses `ocr-ckpt-v1` text written by [`write_checkpoint`] back into
/// a [`CheckpointDoc`], resolving net names against `layout`.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line number for a
/// missing or wrong magic line, unknown directives or net names, bad
/// numbers, non-axis-parallel wires, geometry for undeclared nets, or
/// duplicate declarations. Never panics, whatever the input.
pub fn parse_checkpoint(layout: &Layout, text: &str) -> Result<CheckpointDoc, ParseError> {
    let nets = reader::net_index(layout);
    let mut lines = reader::lines(text);
    let magic = "missing `ocr-ckpt-v1` magic line";
    reader::expect_magic(&mut lines, "ocr-ckpt-v1", magic, magic)?;
    let mut doc = CheckpointDoc::default();
    // Index into doc.routed per net, so wire/via lines append to the
    // right route; doubles as the routed-declaration set.
    let mut route_slot: HashMap<NetId, usize> = HashMap::new();
    // Every net declared routed, failed or pending — each net may hold
    // at most one role, declared at most once.
    let mut declared: HashSet<NetId> = HashSet::new();
    let mut excl_seen: HashSet<NetId> = HashSet::new();
    let mut retry_seen: HashSet<NetId> = HashSet::new();
    let once = |seen: &mut HashSet<NetId>, cur: &mut Cursor, twice: &str| {
        let net = cur.net(&nets)?;
        if !seen.insert(net) {
            return Err(cur.err(format!("net#{} {twice}", net.0)));
        }
        Ok(net)
    };

    for (directive, mut cur) in lines {
        match directive {
            "flow" => doc.flow = cur.word("flow name")?.to_string(),
            "chip" => {
                let hex = cur.word("chip hash")?;
                doc.chip_hash = u64::from_str_radix(hex, 16)
                    .map_err(|e| cur.err(format!("bad chip hash: {e}")))?;
            }
            "salvage" => {
                doc.salvage = match cur.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(cur.err(format!("salvage must be 0 or 1, got {other:?}"))),
                };
            }
            "steps" => doc.steps = cur.num()?,
            "rips-left" => doc.rips_left = cur.num()?,
            "stat" => {
                let stat = cur.word("stat name")?.to_string();
                let value = cur.word("stat value")?;
                doc.stats.push((stat, cur.parse(value, "stat value")?));
            }
            "routed" => {
                let net = once(&mut declared, &mut cur, "declared twice")?;
                route_slot.insert(net, doc.routed.len());
                doc.routed.push((net, NetRoute::new()));
            }
            "wire" | "via" => {
                let (net, geometry) = parse_route_line(directive, &mut cur, &nets)?;
                let slot = *route_slot
                    .get(&net)
                    .ok_or_else(|| cur.err(format!("{directive} for a net not declared routed")))?;
                geometry.add_to(&mut doc.routed[slot].1);
            }
            "failed" => {
                let net = once(&mut declared, &mut cur, "declared twice")?;
                let reason = cur.joined();
                if reason.is_empty() {
                    return Err(cur.err("failed needs a reason token"));
                }
                doc.failed.push((net, reason));
            }
            "pending" => {
                let net = once(&mut declared, &mut cur, "declared twice")?;
                doc.pending.push(net);
            }
            "unrouted" => {
                let net = cur.net(&nets)?;
                let cell = |cur: &mut Cursor| -> Result<usize, ParseError> {
                    let index: u64 = cur.num()?;
                    usize::try_from(index).map_err(|e| cur.err(format!("bad cell index: {e}")))
                };
                let i = cell(&mut cur)?;
                doc.unrouted.push((net, i, cell(&mut cur)?));
            }
            "excl" => {
                let net = once(&mut excl_seen, &mut cur, "has two excl lines")?;
                let mut victims = Vec::new();
                while let Some(name) = cur.next() {
                    victims.push(cur.net_named(&nets, name)?);
                }
                doc.exclusions.push((net, victims));
            }
            "retry" => {
                let net = once(&mut retry_seen, &mut cur, "has two retry lines")?;
                doc.retries.push((net, cur.num()?));
            }
            other => return Err(cur.err(format!("unknown directive `{other}`"))),
        }
        // Every directive has a fixed number of fields, or reads to the
        // end of its line.
        cur.end()?;
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Layer, Point, Rect};
    use ocr_netlist::{NetClass, RouteSeg, Via};

    fn layout() -> Layout {
        let mut layout = Layout::new(Rect::new(0, 0, 300, 200));
        for name in ["clk", "d0", "d1"] {
            let n = layout.add_net(name, NetClass::Signal);
            layout.add_pin(n, None, Point::new(0, 0), Layer::Metal2);
            layout.add_pin(n, None, Point::new(10, 10), Layer::Metal2);
        }
        layout
    }

    fn sample_doc() -> CheckpointDoc {
        let mut route = NetRoute::new();
        route.segs.push(RouteSeg::new(
            Point::new(0, 10),
            Point::new(50, 10),
            Layer::Metal3,
        ));
        route
            .vias
            .push(Via::new(Point::new(50, 10), Layer::Metal3, Layer::Metal4));
        CheckpointDoc {
            flow: "overcell".into(),
            chip_hash: 0xdead_beef_0123_4567,
            salvage: true,
            steps: 42,
            rips_left: 7,
            stats: vec![("rips".into(), 3), ("wire_length".into(), -1)],
            routed: vec![(NetId(0), route)],
            failed: vec![(NetId(2), "poisoned index out of range".into())],
            pending: vec![(NetId(1))],
            unrouted: vec![(NetId(1), 4, 7), (NetId(1), 2, 2)],
            exclusions: vec![(NetId(1), vec![NetId(0)])],
            retries: vec![(NetId(1), 2)],
        }
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let layout = layout();
        let doc = sample_doc();
        let text = write_checkpoint(&layout, &doc);
        let back = parse_checkpoint(&layout, &text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(write_checkpoint(&layout, &back), text);
    }

    #[test]
    fn magic_line_is_required_first() {
        let layout = layout();
        let e = parse_checkpoint(&layout, "flow overcell").unwrap_err();
        assert!(e.message.contains("magic"), "{e}");
        let e = parse_checkpoint(&layout, "").unwrap_err();
        assert!(e.message.contains("magic"), "{e}");
        // Comments and blank lines may precede it.
        let doc =
            parse_checkpoint(&layout, "# header\n\nocr-ckpt-v1\nflow overcell\n").expect("parses");
        assert_eq!(doc.flow, "overcell");
    }

    #[test]
    fn geometry_for_undeclared_nets_is_rejected() {
        let layout = layout();
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nwire clk metal3 0 0 9 0").unwrap_err();
        assert!(e.message.contains("not declared routed"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nvia clk metal3 metal4 0 0").unwrap_err();
        assert!(e.message.contains("not declared routed"), "{e}");
    }

    #[test]
    fn double_declarations_are_rejected() {
        let layout = layout();
        for text in [
            "ocr-ckpt-v1\nrouted clk\nrouted clk",
            "ocr-ckpt-v1\nrouted clk\npending clk",
            "ocr-ckpt-v1\nfailed clk unroutable\npending clk",
        ] {
            let e = parse_checkpoint(&layout, text).unwrap_err();
            assert!(e.message.contains("declared twice"), "{e}");
        }
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let layout = layout();
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nchip nothex").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad chip hash"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nsalvage maybe").unwrap_err();
        assert!(e.message.contains("salvage"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nfailed clk").unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nrouted clk\nwire clk metal3 0 0 9 9")
            .unwrap_err();
        assert!(e.message.contains("axis-parallel"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\npending ghost").unwrap_err();
        assert!(e.message.contains("unknown net"), "{e}");
        let e = parse_checkpoint(&layout, "ocr-ckpt-v1\nfrobnicate").unwrap_err();
        assert!(e.message.contains("unknown directive"), "{e}");
    }

    #[test]
    fn reason_text_is_sanitized_on_write() {
        let layout = layout();
        let mut doc = CheckpointDoc {
            flow: "overcell".into(),
            ..CheckpointDoc::default()
        };
        doc.failed
            .push((NetId(0), "poisoned line1\nline2 # tail".into()));
        let text = write_checkpoint(&layout, &doc);
        let back = parse_checkpoint(&layout, &text).expect("sanitized text parses");
        assert_eq!(back.failed[0].1, "poisoned line1 line2 ? tail");
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64("a"), fnv1a_64("a"));
        assert_ne!(fnv1a_64("a"), fnv1a_64("b"));
    }
}
