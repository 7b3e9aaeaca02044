#![warn(missing_docs)]

//! # ocr-obs
//!
//! A hermetic, std-only **telemetry layer** for the over-cell router:
//! scoped wall-clock spans, named monotonic counters, and a thread-safe
//! collector that aggregates records across the `ocr-exec` worker pool.
//! Like the PRNG in `ocr_gen::rng` and the thread pool in `ocr_exec`,
//! the workspace builds fully offline, so this crate depends on nothing
//! but `std`.
//!
//! ## Model
//!
//! Telemetry is **opt-in per scope**, not a process-global switch: a
//! [`Collector`] is installed on the current thread with
//! [`with_collector`], and every [`span`] / [`count`] call inside that
//! scope records into it. When no collector is installed (the default),
//! both calls are no-ops — one thread-local read — so instrumented code
//! pays nothing in ordinary runs. `ocr-exec` captures the caller's
//! collector with [`current`] and re-installs it on its pool workers
//! with [`with_current`], so parallel stages aggregate into the same
//! collector as sequential ones.
//!
//! Telemetry is strictly **observational**: nothing read from a
//! collector ever feeds back into routing decisions, so routed designs
//! are byte-identical with collection on or off, at any worker count
//! (enforced by `tests/telemetry.rs`).
//!
//! ## Exports
//!
//! A [`Telemetry`] snapshot renders three ways:
//!
//! * [`Telemetry::render_table`] — a human `--stats` table of per-span
//!   aggregates and counters;
//! * [`stats_json`] — machine-readable JSON (`ocr-stats-v1` schema),
//!   validated by the in-tree `obs-check` binary with the parser in
//!   [`json`];
//! * [`chrome_trace`] — Chrome-trace JSON (load in `chrome://tracing`
//!   or Perfetto), one process per labeled run, one thread lane per
//!   recording thread.
//!
//! ```
//! let collector = ocr_obs::Collector::new();
//! ocr_obs::with_collector(&collector, || {
//!     let _span = ocr_obs::span("phase.work");
//!     ocr_obs::count("widgets", 3);
//! });
//! let t = collector.snapshot();
//! assert_eq!(t.counter("widgets"), Some(3));
//! assert_eq!(t.aggregate()[0].name, "phase.work");
//! ```

pub mod json;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

thread_local! {
    /// The collector telemetry calls on this thread record into.
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// One completed span: a named wall-clock interval on one thread lane,
/// with times in nanoseconds since the collector's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (dotted phase path, e.g. `flow.level_b`).
    pub name: String,
    /// Recording thread's lane (0-based, in order of first record).
    pub lane: u32,
    /// Start offset from the collector's creation, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Inner {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<String, u64>>,
    lanes: Mutex<HashMap<ThreadId, u32>>,
}

/// A thread-safe telemetry sink. Cheap to clone (an `Arc` handle); all
/// clones record into the same storage.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh, empty collector. Its creation instant is the epoch all
    /// span timestamps are measured from.
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                lanes: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The lane index of the calling thread (assigned on first use).
    fn lane(&self) -> u32 {
        let id = std::thread::current().id();
        let mut lanes = self.inner.lanes.lock().unwrap_or_else(|e| e.into_inner());
        let next = lanes.len() as u32;
        *lanes.entry(id).or_insert(next)
    }

    fn record(&self, name: Cow<'static, str>, t0: Instant) {
        let start_ns = t0.saturating_duration_since(self.inner.epoch).as_nanos() as u64;
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let lane = self.lane();
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanEvent {
                name: name.into_owned(),
                lane,
                start_ns,
                dur_ns,
            });
    }

    /// A copy of everything recorded so far. The collector keeps
    /// accumulating afterwards; snapshots are independent values.
    pub fn snapshot(&self) -> Telemetry {
        let events = self
            .inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        Telemetry { events, counters }
    }
}

/// Runs `f` with `collector` installed as the current telemetry sink on
/// this thread, restoring the previous sink on exit (including panic).
pub fn with_collector<R>(collector: &Collector, f: impl FnOnce() -> R) -> R {
    with_current(Some(collector.clone()), f)
}

/// Runs `f` with the current sink forced to `collector` (possibly
/// `None`, silencing telemetry inside `f`). This is the propagation
/// primitive `ocr-exec` uses to hand the caller's collector to its pool
/// workers; application code normally wants [`with_collector`].
pub fn with_current<R>(collector: Option<Collector>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Collector>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), collector));
    let _restore = Restore(prev);
    f()
}

/// The collector currently installed on this thread, if any.
pub fn current() -> Option<Collector> {
    CURRENT.with(|c| c.borrow().clone())
}

/// An in-flight scoped span; records its wall-clock interval into the
/// collector that was current at creation when dropped. Inert (and
/// free) when no collector was installed.
#[must_use = "a span records its interval when dropped; binding it to _ ends it immediately"]
pub struct Span {
    data: Option<(Collector, Cow<'static, str>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((collector, name, t0)) = self.data.take() {
            collector.record(name, t0);
        }
    }
}

/// Opens a scoped span named `name`; the returned guard records the
/// elapsed interval into the current collector when dropped. No-op when
/// no collector is installed.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    Span {
        data: current().map(|c| (c, name.into(), Instant::now())),
    }
}

/// Adds `delta` to the named monotonic counter in the current
/// collector. A delta of zero still declares the counter (it appears in
/// exports with value 0). No-op when no collector is installed.
pub fn count(name: impl Into<Cow<'static, str>>, delta: u64) {
    CURRENT.with(|c| {
        if let Some(collector) = &*c.borrow() {
            let mut counters = collector
                .inner
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *counters.entry(name.into().into_owned()).or_insert(0) += delta;
        }
    });
}

/// Raises the named counter to at least `value` — a high-water mark
/// (queue depth, fan-out width) rather than a running sum. Recording a
/// lower value still declares the counter. Mixing [`count`] and
/// [`count_max`] on one name is a caller bug: the result depends on
/// call order. No-op when no collector is installed.
pub fn count_max(name: impl Into<Cow<'static, str>>, value: u64) {
    CURRENT.with(|c| {
        if let Some(collector) = &*c.borrow() {
            let mut counters = collector
                .inner
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let slot = counters.entry(name.into().into_owned()).or_insert(0);
            *slot = (*slot).max(value);
        }
    });
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest interval, nanoseconds.
    pub min_ns: u64,
    /// Longest interval, nanoseconds.
    pub max_ns: u64,
}

/// A snapshot of one collector: raw span events plus counters. Pure
/// data — safe to clone, compare and ship in results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Every recorded span interval, in record order.
    pub events: Vec<SpanEvent>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Telemetry {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty()
    }

    /// The value of a counter, if it was ever declared.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Per-name span aggregates, sorted by name.
    pub fn aggregate(&self) -> Vec<SpanAgg> {
        let mut by: BTreeMap<&str, SpanAgg> = BTreeMap::new();
        for e in &self.events {
            let agg = by.entry(&e.name).or_insert_with(|| SpanAgg {
                name: e.name.clone(),
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += e.dur_ns;
            agg.min_ns = agg.min_ns.min(e.dur_ns);
            agg.max_ns = agg.max_ns.max(e.dur_ns);
        }
        by.into_values().collect()
    }

    /// Merges another snapshot's events and counters into this one.
    pub fn merge(&mut self, other: &Telemetry) {
        self.events.extend(other.events.iter().cloned());
        let mut map: BTreeMap<String, u64> =
            std::mem::take(&mut self.counters).into_iter().collect();
        for (name, v) in &other.counters {
            *map.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = map.into_iter().collect();
    }

    /// A human-readable table of span aggregates and counters (the
    /// `--stats` output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let aggs = self.aggregate();
        if !aggs.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {:>12}",
                "span", "count", "total ms", "min ms", "max ms"
            );
            for a in &aggs {
                let _ = writeln!(
                    out,
                    "{:<28} {:>7} {:>12.3} {:>12.3} {:>12.3}",
                    a.name,
                    a.count,
                    ms(a.total_ns),
                    ms(a.min_ns),
                    ms(a.max_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<42} {:>14}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<42} {v:>14}");
            }
        }
        out
    }

    fn write_json_object(&self, out: &mut String) {
        out.push_str("{\"spans\":[");
        for (k, a) in self.aggregate().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                escape(&a.name),
                a.count,
                a.total_ns,
                a.min_ns,
                a.max_ns
            );
        }
        out.push_str("],\"counters\":[");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"value\":{}}}", escape(name), v);
        }
        out.push_str("]}");
    }
}

/// Milliseconds for display.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Escapes a string for embedding in a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A labeled telemetry snapshot: `(chip, flow, telemetry)`.
pub type LabeledRun<'a> = (&'a str, &'a str, &'a Telemetry);

/// Renders labeled runs as the `ocr-stats-v1` JSON document consumed by
/// `obs-check` (and anything else): one entry per run with per-span
/// aggregates and counters.
pub fn stats_json(runs: &[LabeledRun<'_>]) -> String {
    let mut out = String::from("{\"schema\":\"ocr-stats-v1\",\"runs\":[");
    for (k, (chip, flow, t)) in runs.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"chip\":\"{}\",\"flow\":\"{}\",",
            escape(chip),
            escape(flow)
        );
        // Splice the telemetry object's fields into the run object.
        let mut body = String::new();
        t.write_json_object(&mut body);
        out.push_str(&body[1..]);
    }
    out.push_str("]}");
    out
}

/// Renders labeled runs as Chrome-trace JSON (the "JSON Array Format"):
/// one trace process per run (named `chip/flow`), one thread lane per
/// recording thread. Load the file in `chrome://tracing` or Perfetto.
pub fn chrome_trace(runs: &[LabeledRun<'_>]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut emit = |out: &mut String, s: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&s);
    };
    for (pid, (chip, flow, t)) in runs.iter().enumerate() {
        emit(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}/{}\"}}}}",
                pid,
                escape(chip),
                escape(flow)
            ),
        );
        for e in &t.events {
            emit(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"ocr\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    escape(&e.name),
                    pid,
                    e.lane,
                    e.start_ns as f64 / 1e3,
                    e.dur_ns as f64 / 1e3
                ),
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_counters_record_into_the_scoped_collector() {
        let c = Collector::new();
        with_collector(&c, || {
            {
                let _s = span("phase.a");
                count("things", 2);
            }
            let _s = span("phase.a");
        });
        let t = c.snapshot();
        assert_eq!(t.events.len(), 2);
        let aggs = t.aggregate();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].name, "phase.a");
        assert_eq!(aggs[0].count, 2);
        assert!(aggs[0].total_ns >= aggs[0].min_ns);
        assert_eq!(t.counter("things"), Some(2));
        assert_eq!(t.counter("absent"), None);
    }

    #[test]
    fn no_collector_means_no_op() {
        assert!(current().is_none());
        let _s = span("ignored");
        count("ignored", 7);
        assert!(current().is_none());
    }

    #[test]
    fn zero_delta_declares_a_counter() {
        let c = Collector::new();
        with_collector(&c, || count("declared", 0));
        assert_eq!(c.snapshot().counter("declared"), Some(0));
    }

    #[test]
    fn count_max_keeps_the_high_water_mark() {
        let c = Collector::new();
        with_collector(&c, || {
            count_max("queue.depth", 3);
            count_max("queue.depth", 7);
            count_max("queue.depth", 5);
            count_max("declared", 0);
        });
        assert_eq!(c.snapshot().counter("queue.depth"), Some(7));
        assert_eq!(c.snapshot().counter("declared"), Some(0));
        count_max("ignored", 9); // no collector installed — no-op
    }

    #[test]
    fn nesting_restores_the_previous_collector() {
        let outer = Collector::new();
        let inner = Collector::new();
        with_collector(&outer, || {
            count("where", 1);
            with_collector(&inner, || count("where", 10));
            with_current(None, || count("where", 100)); // silenced
            count("where", 2);
        });
        assert_eq!(outer.snapshot().counter("where"), Some(3));
        assert_eq!(inner.snapshot().counter("where"), Some(10));
    }

    #[test]
    fn restore_survives_panic() {
        let c = Collector::new();
        let result = std::panic::catch_unwind(|| with_collector(&c, || panic!("boom")));
        assert!(result.is_err());
        assert!(current().is_none());
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let c = Collector::new();
        with_collector(&c, || {
            let _s = span("main");
        });
        let c2 = c.clone();
        std::thread::spawn(move || {
            with_collector(&c2, || {
                let _s = span("worker");
            })
        })
        .join()
        .expect("worker");
        let t = c.snapshot();
        assert_eq!(t.events.len(), 2);
        let lanes: std::collections::HashSet<u32> = t.events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 2);
    }

    #[test]
    fn merge_adds_counters_and_concatenates_events() {
        let mut a = Telemetry {
            events: vec![SpanEvent {
                name: "x".into(),
                lane: 0,
                start_ns: 0,
                dur_ns: 5,
            }],
            counters: vec![("n".into(), 1)],
        };
        let b = Telemetry {
            events: vec![SpanEvent {
                name: "y".into(),
                lane: 0,
                start_ns: 1,
                dur_ns: 6,
            }],
            counters: vec![("m".into(), 4), ("n".into(), 2)],
        };
        a.merge(&b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.counter("m"), Some(4));
    }

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        let c = Collector::new();
        with_collector(&c, || {
            let _s = span("flow.level_b");
            count("level_b.rips", 3);
        });
        let t = c.snapshot();
        let text = stats_json(&[("ami33", "overcell", &t)]);
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some("ocr-stats-v1")
        );
        let runs = v.get("runs").and_then(json::Value::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("chip").and_then(json::Value::as_str),
            Some("ami33")
        );
        let counters = runs[0]
            .get("counters")
            .and_then(json::Value::as_array)
            .expect("counters");
        assert_eq!(
            counters[0].get("name").and_then(json::Value::as_str),
            Some("level_b.rips")
        );
        assert_eq!(
            counters[0].get("value").and_then(json::Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_process_per_run() {
        let c = Collector::new();
        with_collector(&c, || {
            let _s = span("phase");
        });
        let t = c.snapshot();
        let text = chrome_trace(&[("a", "overcell", &t), ("b", "channel2", &t)]);
        let v = json::parse(&text).expect("valid JSON");
        let events = v.as_array().expect("array");
        // 2 metadata + 2 span events.
        assert_eq!(events.len(), 4);
        let pids: std::collections::HashSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(json::Value::as_u64))
            .collect();
        assert_eq!(pids.len(), 2);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn render_table_lists_spans_and_counters() {
        let c = Collector::new();
        with_collector(&c, || {
            let _s = span("phase.z");
            count("k", 9);
        });
        let table = c.snapshot().render_table();
        assert!(table.contains("phase.z"));
        assert!(table.contains("k"));
        assert!(table.contains("total ms"));
    }
}
