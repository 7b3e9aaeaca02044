//! In-tree micro-benchmark harness.
//!
//! The workspace builds fully offline, so the benches cannot pull in
//! `criterion`. This module provides the small slice of criterion's API
//! the bench targets use — [`Criterion`], [`BenchmarkId`],
//! [`Throughput`], benchmark groups and the
//! [`criterion_group!`](crate::criterion_group)/
//! [`criterion_main!`](crate::criterion_main) macros — backed by a
//! plain wall-clock timer. Numbers are medians over fixed-size batches;
//! good enough to rank algorithms and spot order-of-magnitude
//! regressions, which is all the paper-reproduction tables need.
//!
//! Run with `cargo bench`. When invoked with `--test` (as
//! `cargo test --benches` and `cargo bench -- --test` do), every
//! benchmark body runs exactly once with no timing, so CI can smoke-test
//! the bench targets cheaply.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Work-per-iteration declaration, used to derive throughput rates.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus parameter value.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a name and a parameter (`name/param`).
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// An id made of the parameter alone.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

/// Top-level benchmark driver (a minimal stand-in for
/// `criterion::Criterion`).
pub struct Criterion {
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::args().any(|a| a == "--test");
        Criterion { quick }
    }
}

/// The median of `samples` (the upper one for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median<T: Ord + Copy>(mut samples: Vec<T>) -> T {
    samples.sort();
    samples[samples.len() / 2]
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        if !self.quick {
            println!("== {name} ==");
        }
        BenchmarkGroup {
            c: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function(&mut self, name: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            quick: self.quick,
            sample_size: 10,
            measured: None,
        };
        let report = b.run(&mut f);
        if !self.quick {
            println!("{name:<40} {report}");
        }
    }
}

/// A group of benchmarks sharing a name, sample size and throughput.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declares the work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher {
            quick: self.c.quick,
            sample_size: self.sample_size,
            measured: None,
        };
        let report = b.run(&mut |bch| f(bch, input));
        if !self.c.quick {
            let rate = self.throughput.map(|t| report.rate(t)).unwrap_or_default();
            println!("{:<44} {report}{rate}", format!("{}/{}", self.name, id.id));
        }
        self
    }

    /// Benchmarks `f` with no input.
    pub fn bench_function(
        &mut self,
        id: BenchmarkId,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            quick: self.c.quick,
            sample_size: self.sample_size,
            measured: None,
        };
        let report = b.run(&mut f);
        if !self.c.quick {
            println!("{:<44} {report}", format!("{}/{}", self.name, id.id));
        }
        self
    }

    /// Ends the group (kept for criterion API parity).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark body; call [`Bencher::iter`] with the
/// closure to measure.
pub struct Bencher {
    quick: bool,
    sample_size: usize,
    measured: Option<Report>,
}

/// One benchmark's timing summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Report {
    /// Median time per iteration.
    pub median: Duration,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
}

impl Report {
    fn rate(&self, t: Throughput) -> String {
        let secs = self.median.as_secs_f64();
        if secs <= 0.0 {
            return String::new();
        }
        match t {
            Throughput::Elements(n) => format!("  ({:.3e} elem/s)", n as f64 / secs),
            Throughput::Bytes(n) => format!("  ({:.3e} B/s)", n as f64 / secs),
        }
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12.3?}/iter  [{} iters × {} samples]",
            self.median, self.iters, self.samples
        )
    }
}

impl Bencher {
    /// Runs and times the closure. In quick mode it executes once and
    /// records nothing.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        self.measured = Some(Self::measure(self.quick, self.sample_size, &mut f));
    }

    fn measure<R>(quick: bool, sample_size: usize, f: &mut impl FnMut() -> R) -> Report {
        if quick {
            std::hint::black_box(f());
            return Report::default();
        }
        // Warm up and size batches so one sample is ≥ ~10 ms.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters =
            (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let mut samples: Vec<Duration> = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples.push(start.elapsed() / iters as u32);
        }
        Report {
            median: median(samples),
            iters,
            samples: sample_size,
        }
    }

    fn run(&mut self, f: &mut impl FnMut(&mut Bencher)) -> Report {
        self.measured = None;
        f(self);
        self.measured.take().unwrap_or_default()
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_body_once() {
        let mut calls = 0usize;
        let mut b = Bencher {
            quick: true,
            sample_size: 10,
            measured: None,
        };
        let r = b.run(&mut |bch| {
            bch.iter(|| {
                calls += 1;
            })
        });
        assert_eq!(calls, 1);
        assert_eq!(r.iters, 0);
    }

    #[test]
    fn timed_mode_reports_samples() {
        let mut b = Bencher {
            quick: false,
            sample_size: 3,
            measured: None,
        };
        let r = b.run(&mut |bch| bch.iter(|| std::hint::black_box(2u64 + 2)));
        assert_eq!(r.samples, 3);
        assert!(r.iters >= 1);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("a", 7).id, "a/7");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }
}
