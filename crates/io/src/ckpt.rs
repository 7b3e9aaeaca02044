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
//! routed n3                    # committed nets, in commit order
//! wire n3 metal3 40 80 160 80  # geometry in write_routes grammar
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

use crate::{layer_name, parse_layer, ParseError};
use ocr_geom::{Coord, Point};
use ocr_netlist::{Layout, NetId, NetRoute, RouteSeg, Via};
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
    /// Committed routes, in commit order.
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
    field
        .chars()
        .map(|c| match c {
            '#' => '?',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
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
        for seg in &route.segs {
            let _ = writeln!(
                s,
                "wire {} {} {} {} {} {}",
                name(*net),
                layer_name(seg.layer()),
                seg.a().x,
                seg.a().y,
                seg.b().x,
                seg.b().y
            );
        }
        for via in &route.vias {
            let _ = writeln!(
                s,
                "via {} {} {} {} {}",
                name(*net),
                layer_name(via.lower),
                layer_name(via.upper),
                via.at.x,
                via.at.y
            );
        }
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
    let err = |line: usize, message: String| ParseError { line, message };
    let by_name: HashMap<&str, NetId> = layout
        .nets
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), NetId(i as u32)))
        .collect();
    let mut doc = CheckpointDoc::default();
    let mut saw_magic = false;
    // Index into doc.routed per net, so wire/via lines append to the
    // right route; doubles as the routed-declaration set.
    let mut route_slot: HashMap<NetId, usize> = HashMap::new();
    // Every net declared routed, failed or pending — each net may hold
    // at most one role, declared at most once.
    let mut declared: HashSet<NetId> = HashSet::new();
    let mut excl_seen: HashSet<NetId> = HashSet::new();
    let mut retry_seen: HashSet<NetId> = HashSet::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = ln + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tok = content.split_whitespace();
        let Some(kind) = tok.next() else { continue };
        if !saw_magic {
            if kind == "ocr-ckpt-v1" && tok.next().is_none() {
                saw_magic = true;
                continue;
            }
            return Err(err(line, "missing `ocr-ckpt-v1` magic line".into()));
        }
        let net_of = |tok: &mut std::str::SplitWhitespace<'_>| -> Result<NetId, ParseError> {
            let name = tok.next().ok_or_else(|| err(line, "missing net".into()))?;
            by_name
                .get(name)
                .copied()
                .ok_or_else(|| err(line, format!("unknown net `{name}`")))
        };
        let u64_of = |tok: Option<&str>| -> Result<u64, ParseError> {
            tok.ok_or_else(|| err(line, "missing number".into()))?
                .parse::<u64>()
                .map_err(|e| err(line, format!("bad number: {e}")))
        };
        match kind {
            "flow" => {
                doc.flow = tok
                    .next()
                    .ok_or_else(|| err(line, "missing flow name".into()))?
                    .to_string();
            }
            "chip" => {
                let hex = tok
                    .next()
                    .ok_or_else(|| err(line, "missing chip hash".into()))?;
                doc.chip_hash = u64::from_str_radix(hex, 16)
                    .map_err(|e| err(line, format!("bad chip hash: {e}")))?;
            }
            "salvage" => {
                doc.salvage = match tok.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => {
                        return Err(err(line, format!("salvage must be 0 or 1, got {other:?}")))
                    }
                };
            }
            "steps" => doc.steps = u64_of(tok.next())?,
            "rips-left" => doc.rips_left = u64_of(tok.next())?,
            "stat" => {
                let stat = tok
                    .next()
                    .ok_or_else(|| err(line, "missing stat name".into()))?;
                let value: i64 = tok
                    .next()
                    .ok_or_else(|| err(line, "missing stat value".into()))?
                    .parse()
                    .map_err(|e| err(line, format!("bad stat value: {e}")))?;
                doc.stats.push((stat.to_string(), value));
            }
            "routed" => {
                let net = net_of(&mut tok)?;
                if !declared.insert(net) {
                    return Err(err(line, format!("net#{} declared twice", net.0)));
                }
                route_slot.insert(net, doc.routed.len());
                doc.routed.push((net, NetRoute::new()));
            }
            "wire" => {
                let net = net_of(&mut tok)?;
                let layer = parse_layer(
                    tok.next()
                        .ok_or_else(|| err(line, "missing layer".into()))?,
                    line,
                )?;
                let nums: Vec<Coord> = tok
                    .map(|t| t.parse().map_err(|e| err(line, format!("bad number: {e}"))))
                    .collect::<Result<_, _>>()?;
                if nums.len() != 4 {
                    return Err(err(line, "wire needs 4 coordinates".into()));
                }
                // `RouteSeg::new` asserts axis-parallelism; check first
                // so corrupt coordinates surface as a ParseError.
                if nums[0] != nums[2] && nums[1] != nums[3] {
                    return Err(err(line, "wire endpoints are not axis-parallel".into()));
                }
                let slot = *route_slot
                    .get(&net)
                    .ok_or_else(|| err(line, "wire for a net not declared routed".into()))?;
                doc.routed[slot].1.segs.push(RouteSeg::new(
                    Point::new(nums[0], nums[1]),
                    Point::new(nums[2], nums[3]),
                    layer,
                ));
            }
            "via" => {
                let net = net_of(&mut tok)?;
                let lower = parse_layer(
                    tok.next()
                        .ok_or_else(|| err(line, "missing layer".into()))?,
                    line,
                )?;
                let upper = parse_layer(
                    tok.next()
                        .ok_or_else(|| err(line, "missing layer".into()))?,
                    line,
                )?;
                let nums: Vec<Coord> = tok
                    .map(|t| t.parse().map_err(|e| err(line, format!("bad number: {e}"))))
                    .collect::<Result<_, _>>()?;
                if nums.len() != 2 {
                    return Err(err(line, "via needs 2 coordinates".into()));
                }
                let slot = *route_slot
                    .get(&net)
                    .ok_or_else(|| err(line, "via for a net not declared routed".into()))?;
                doc.routed[slot]
                    .1
                    .vias
                    .push(Via::new(Point::new(nums[0], nums[1]), lower, upper));
            }
            "failed" => {
                let net = net_of(&mut tok)?;
                if !declared.insert(net) {
                    return Err(err(line, format!("net#{} declared twice", net.0)));
                }
                let reason: Vec<&str> = tok.collect();
                if reason.is_empty() {
                    return Err(err(line, "failed needs a reason token".into()));
                }
                doc.failed.push((net, reason.join(" ")));
            }
            "pending" => {
                let net = net_of(&mut tok)?;
                if !declared.insert(net) {
                    return Err(err(line, format!("net#{} declared twice", net.0)));
                }
                doc.pending.push(net);
            }
            "unrouted" => {
                let net = net_of(&mut tok)?;
                let i = usize::try_from(u64_of(tok.next())?)
                    .map_err(|e| err(line, format!("bad cell index: {e}")))?;
                let j = usize::try_from(u64_of(tok.next())?)
                    .map_err(|e| err(line, format!("bad cell index: {e}")))?;
                doc.unrouted.push((net, i, j));
            }
            "excl" => {
                let net = net_of(&mut tok)?;
                if !excl_seen.insert(net) {
                    return Err(err(line, format!("net#{} has two excl lines", net.0)));
                }
                let mut victims = Vec::new();
                for name in tok {
                    let victim = by_name
                        .get(name)
                        .copied()
                        .ok_or_else(|| err(line, format!("unknown net `{name}`")))?;
                    victims.push(victim);
                }
                doc.exclusions.push((net, victims));
            }
            "retry" => {
                let net = net_of(&mut tok)?;
                if !retry_seen.insert(net) {
                    return Err(err(line, format!("net#{} has two retry lines", net.0)));
                }
                doc.retries.push((net, u64_of(tok.next())?));
            }
            other => return Err(err(line, format!("unknown directive `{other}`"))),
        }
    }
    if !saw_magic {
        return Err(err(1, "missing `ocr-ckpt-v1` magic line".into()));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Layer, Rect};
    use ocr_netlist::NetClass;

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
