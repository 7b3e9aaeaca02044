//! Spans recorded by the benchmark itself, around each public call it
//! makes into the router. The program's own spans and counters are
//! captured separately through an `ocr_obs` collector.
//!
//! Every call is timed the same way whether tracing is on or off; only
//! the recording differs, so a plain and a traced pass run the same code.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer boundary name, e.g. `core.level_b`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass or job the span belongs to.
    pub id: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records when `on` and only times otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed seconds. `f` receives the span's index (to parent its
    /// children), which is `None` when tracing is off.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> (R, f64) {
        let idx = self.on.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                id,
            });
            spans.len() - 1
        });
        let t0 = Instant::now();
        let out = f(idx);
        let t1 = Instant::now();
        if let Some(i) = idx {
            let mut spans = self.spans.borrow_mut();
            spans[i].start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            spans[i].end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span measured elsewhere (the serve client's request
    /// timeline), with times as seconds from [`Tracer::epoch`].
    pub fn record(&self, name: &'static str, start_s: f64, end_s: f64, id: u64) {
        if self.on {
            self.spans.borrow_mut().push(SpanRec {
                name,
                start_ns: (start_s * 1e9) as u64,
                end_ns: (end_s * 1e9) as u64,
                parent: None,
                id,
            });
        }
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (k, s) in self.spans.borrow().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time_with_tracing_off_too() {
        let t = Tracer::new(true);
        let ((), outer) = t.span("outer", None, 7, |p| {
            let (v, _) = t.span("inner", p, 7, |_| 3);
            assert_eq!(v, 3);
        });
        assert!(outer >= 0.0);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        drop(spans);
        let off = Tracer::new(false);
        let (v, secs) = off.span("x", None, 0, |p| {
            assert_eq!(p, None);
            1
        });
        assert_eq!(v, 1);
        assert!(secs >= 0.0);
        assert_eq!(off.to_json(), "[\n]");
    }
}
