#![warn(missing_docs)]

//! # ocr-exec
//!
//! A hermetic, std-only **scoped shared-counter thread pool** for the
//! over-cell router. The workspace builds fully offline, so this crate
//! cannot depend on `rayon` or `crossbeam` — the same discipline as the
//! in-tree PRNG in `ocr_gen::rng` and the JSON parser in
//! `ocr_obs::json`. Everything here is built from
//! [`std::thread::scope`] and atomics.
//!
//! ## Model
//!
//! * [`parallel_map`] — apply a function to every element of a slice
//!   across the pool, returning results **in input order**. This is the
//!   workhorse behind per-channel Level A routing, the `ocr-verify`
//!   fan-out and the suite/bench drivers.
//! * Worker count comes from the `OCR_THREADS` environment variable
//!   (default: [`std::thread::available_parallelism`]); tests and
//!   benchmarks override it locally with [`with_threads`].
//!
//! ## Scheduling
//!
//! Each parallel region starts one scoped thread per worker. Workers
//! claim item indices from **one shared atomic counter**
//! (`fetch_add(1)`), keep their `(index, result)` pairs locally and hand
//! them back when the region joins; the caller places each result at its
//! index. The regions the router runs are coarse — channels, nets in
//! verify, suite combinations, portfolio strategies, serve slices — so a
//! single counter balances a skewed region (one congested channel among
//! many empty ones) as well as per-worker queues would, with no locks on
//! the scheduling path.
//!
//! ## Determinism
//!
//! Scheduling order is nondeterministic; **results are not**. Outputs
//! are merged by item index, so a parallel run is bit-identical to a
//! sequential (`OCR_THREADS=1`) run of the same closure over the same
//! items. The routers and the verifier rely on this contract and it is
//! enforced by integration tests (`tests/determinism.rs`).
//!
//! ## Telemetry
//!
//! When an `ocr-obs` collector is installed on the calling thread, the
//! pool re-installs it on every worker (through [`Ambient`]), so spans
//! and counters recorded inside tasks aggregate into the caller's sink.
//! Each worker also reports its own task count and busy time
//! (`exec.w{n}.tasks`, `exec.w{n}.busy_ns`) plus pool-wide totals
//! (`exec.tasks`, `exec.busy_ns`). With no collector installed nothing
//! is measured.
//!
//! ## Panics and isolation
//!
//! A panic in any task is caught on its worker and stops further claims;
//! it is re-raised on the calling thread after all workers have stopped.
//! Claims go in ascending order, so every lower index has run by then
//! and the lowest panicking item index wins whatever the schedule — a
//! panicking parallel region never deadlocks and never silently drops
//! work.
//!
//! Callers that would rather *keep going* use [`parallel_map_isolated`]:
//! each task's unwind is caught in place, the task is retried once (the
//! router's tasks are idempotent pure functions of their inputs, so a
//! retry is safe and absorbs transient faults), and a task that panics
//! twice surfaces as [`TaskOutcome::Poisoned`] — with the panic message,
//! a `tasks.poisoned` telemetry count, and every *other* task's result
//! intact. The pool itself is unaffected either way: worker threads are
//! scoped per call, so a poisoned region never degrades later regions.
//!
//! Armed `ocr-fault` plans propagate to workers exactly like telemetry
//! collectors and thread-count overrides, so a fault schedule drawn on
//! the calling thread reaches fault points inside parallel tasks. The
//! four pieces of inherited context travel together as one [`Ambient`],
//! which other long-lived threads (the `ocr-serve` TCP acceptor and its
//! connection handlers) use the same way.
//!
//! ## Run control
//!
//! The [`control`] module provides [`RunControl`] — a shared cancel
//! token with an optional deterministic step budget and a best-effort
//! deadline. An ambient control installed with [`with_control`]
//! propagates to pool workers like collectors and fault plans, and
//! [`parallel_map_halting`] regions stop claiming new tasks once it
//! trips.
//!
//! ```
//! let squares = ocr_exec::parallel_map(&[1i64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod control;

pub use control::{current_control, with_control, RunControl, TripReason};

use control::with_current_control;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Per-thread worker-count override (propagated into pool workers so
    /// nested parallel regions inherit it).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Deterministic interpretation of an `OCR_THREADS` value:
///
/// * empty or all-whitespace → `None` (machine default) — an unset-like
///   value, common when scripts export the variable unconditionally;
/// * `0` → `Some(1)` — an explicit request for a sequential run, never
///   a silent fall-through to full parallelism;
/// * a positive integer (surrounding whitespace tolerated) → `Some(n)`;
/// * anything else (non-numeric, negative, overflowing) → `None`
///   (machine default).
///
/// Never panics; the same input always maps to the same answer.
fn threads_from_env(raw: &str) -> Option<usize> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Some(1),
        Ok(n) => Some(n),
        Err(_) => None,
    }
}

/// The process-wide default worker count: `OCR_THREADS` interpreted by
/// [`threads_from_env`], otherwise the machine's available parallelism.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("OCR_THREADS")
            .ok()
            .as_deref()
            .and_then(threads_from_env)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The worker count parallel regions started from this thread will use:
/// the innermost [`with_threads`] override, else `OCR_THREADS`, else
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(default_threads)
        .max(1)
}

/// Runs `f` with the worker count forced to `n` on this thread (and on
/// any pool workers its parallel regions spawn). Restores the previous
/// setting on exit, including on panic. `n == 1` makes every parallel
/// region inside `f` run inline on the calling thread — this is how the
/// determinism tests produce their sequential reference runs without
/// touching the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(Some(n.max(1)), f)
}

/// Runs `f` with the worker-count override set to `n` (`None` clears
/// it), restoring the previous setting on exit, including on panic.
fn with_override<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(n));
    let _restore = Restore(prev);
    f()
}

/// The per-thread context a thread hands to the threads it starts: the
/// worker-count override, the `ocr-obs` collector, the armed `ocr-fault`
/// plan and the run control. [`Ambient::capture`] reads all four on the
/// current thread and [`Ambient::enter`] installs them on another, so
/// spans and counters recorded there aggregate into the same sink,
/// injection reaches fault points there, charged steps land in the same
/// counter and nested parallel regions keep the same width. Telemetry is
/// observational only — it never changes which items run or how results
/// merge.
#[derive(Clone)]
pub struct Ambient {
    threads: Option<usize>,
    obs: Option<ocr_obs::Collector>,
    fault: Option<ocr_fault::FaultPlan>,
    control: Option<RunControl>,
}

impl Ambient {
    /// The context installed on the calling thread.
    pub fn capture() -> Ambient {
        Ambient {
            threads: OVERRIDE.with(|c| c.get()),
            obs: ocr_obs::current(),
            fault: ocr_fault::current(),
            control: current_control(),
        }
    }

    /// Runs `f` with this context installed on the calling thread,
    /// restoring the previous one on exit, including on panic.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        with_override(self.threads, || {
            with_current_control(self.control.clone(), || {
                ocr_fault::with_current(self.fault.clone(), || {
                    ocr_obs::with_current(self.obs.clone(), f)
                })
            })
        })
    }
}

/// What one worker hands back from a region: its `(index, result)`
/// pairs and the task panic that stopped it, if any.
type WorkerOutput<R> = (Vec<(usize, R)>, Option<(usize, Box<dyn Any + Send>)>);

/// The one parallel region: runs `f` on the items and returns the
/// results in input order. Workers claim indices from one shared
/// counter, so claims go in ascending order. A task panic sets the stop
/// flag; every lower index has been claimed by then and runs to its end,
/// so after the join the lowest panicking index is re-raised whatever
/// the schedule. With `halting`, a tripped ambient control sets the same
/// flag (workers poll it before each claim), and the items never claimed
/// are `None`. With one worker or one item everything runs inline on
/// the calling thread.
fn region<T: Sync, R: Send>(
    items: &[T],
    halting: bool,
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<Option<R>> {
    let n = items.len();
    let control = halting.then(current_control).flatten();
    let tripped = || control.as_ref().is_some_and(RunControl::is_tripped);
    let workers = current_threads().min(n);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    if workers <= 1 {
        for item in items {
            if tripped() {
                break;
            }
            out.push(Some(f(item)));
        }
        out.resize_with(n, || None);
        return out;
    }
    // Both atomics publish no other data (results come back through the
    // join), so `Relaxed` suffices; `fetch_add` alone makes every claim
    // unique.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let ambient = Ambient::capture();
    let timed = ambient.obs.is_some();
    let outputs: Vec<WorkerOutput<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, stop, ambient, tripped) = (&next, &stop, &ambient, &tripped);
                s.spawn(move || {
                    ambient.enter(|| {
                        let mut done = Vec::new();
                        let mut panicked = None;
                        let (mut tasks, mut busy_ns) = (0u64, 0u64);
                        while panicked.is_none() {
                            if tripped() {
                                stop.store(true, Ordering::Relaxed);
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = timed.then(Instant::now);
                            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                                Ok(r) => done.push((i, r)),
                                Err(payload) => {
                                    stop.store(true, Ordering::Relaxed);
                                    panicked = Some((i, payload));
                                }
                            }
                            if let Some(t0) = t0 {
                                tasks += 1;
                                busy_ns += t0.elapsed().as_nanos() as u64;
                            }
                        }
                        if tasks > 0 {
                            ocr_obs::count("exec.tasks", tasks);
                            ocr_obs::count("exec.busy_ns", busy_ns);
                            ocr_obs::count(format!("exec.w{w}.tasks"), tasks);
                            ocr_obs::count(format!("exec.w{w}.busy_ns"), busy_ns);
                        }
                        (done, panicked)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    out.resize_with(n, || None);
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (done, panicked) in outputs {
        for (i, r) in done {
            out[i] = Some(r);
        }
        if let Some((i, payload)) = panicked {
            if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                first_panic = Some((i, payload));
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// Applies `f` to every element of `items` across the pool and returns
/// the results **in input order**. With one worker (or one item) it runs
/// inline on the calling thread — zero scheduling overhead and exactly
/// the sequential semantics.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    region(items, false, &f)
        .into_iter()
        .map(|r| r.expect("a plain region runs every item"))
        .collect()
}

/// Like [`parallel_map`], but cooperative with the ambient
/// [`RunControl`]: workers poll the control before claiming each item
/// and stop claiming once it trips, so the returned vector holds `None`
/// for items that never ran. Results for items that did run are merged
/// by index as usual. With no ambient control installed — or one that
/// never trips — every slot is `Some` and the values are identical to
/// [`parallel_map`]'s, sequentially and in parallel.
pub fn parallel_map_halting<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Option<R>> {
    region(items, true, &f)
}

/// The result of one task in a [`parallel_map_isolated`] region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The task completed. `retried` is `true` when the first attempt
    /// panicked and the retry succeeded (a transient fault absorbed).
    Done {
        /// The task's result.
        value: R,
        /// Whether success came from the second attempt.
        retried: bool,
    },
    /// Both the task and its single retry panicked; the region kept
    /// going without it. Counted as `tasks.poisoned` in telemetry.
    Poisoned {
        /// Human-readable message from the first panic payload.
        message: String,
    },
}

impl<R> TaskOutcome<R> {
    /// The completed value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Done { value, .. } => Some(value),
            TaskOutcome::Poisoned { .. } => None,
        }
    }
}

/// Like [`parallel_map`], but a panicking task poisons only **itself**:
/// the unwind is caught in place, the task retried once (router tasks
/// are idempotent, so a transient fault is absorbed silently apart from
/// a `tasks.retried` count), and a second panic yields
/// [`TaskOutcome::Poisoned`] with the first panic's message plus a
/// `tasks.poisoned` count. Every other task's outcome is unaffected and
/// the pool remains fully usable afterward — worker threads are scoped
/// per call, so nothing leaks out of a poisoned region.
pub fn parallel_map_isolated<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<TaskOutcome<R>> {
    parallel_map(items, |item| {
        let first = match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(value) => {
                return TaskOutcome::Done {
                    value,
                    retried: false,
                }
            }
            Err(payload) => payload,
        };
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(value) => {
                ocr_obs::count("tasks.retried", 1);
                TaskOutcome::Done {
                    value,
                    retried: true,
                }
            }
            Err(_) => {
                ocr_obs::count("tasks.poisoned", 1);
                TaskOutcome::Poisoned {
                    message: ocr_fault::payload_message(first.as_ref()),
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn map_preserves_order_sequentially_and_in_parallel() {
        let items: Vec<u64> = (0..500).collect();
        let seq = with_threads(1, || parallel_map(&items, |&x| x * 3 + 1));
        let par = with_threads(4, || parallel_map(&items, |&x| x * 3 + 1));
        assert_eq!(seq, par);
        assert_eq!(par[7], 22);
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_map(&(0..97).collect::<Vec<usize>>(), |&i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn skewed_items_still_complete() {
        // One item carries almost all the work; the other workers must
        // drain the rest without losing or duplicating anything.
        let items: Vec<usize> = (0..64).collect();
        let out = with_threads(4, || {
            parallel_map(&items, |&i| {
                if i == 0 {
                    (0..50_000u64).sum::<u64>()
                } else {
                    i as u64
                }
            })
        });
        assert_eq!(out[0], 1_249_975_000);
        assert_eq!(out[63], 63);
    }

    #[test]
    fn panic_propagates_with_lowest_index() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(&(0..64).collect::<Vec<usize>>(), |&i| {
                    if i % 2 == 1 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom 1");
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = current_threads();
        let _ = std::panic::catch_unwind(|| with_threads(7, || panic!("x")));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn workers_inherit_the_override() {
        // A nested parallel region inside a pool worker must see the
        // same override as the caller.
        let seen: Vec<Mutex<usize>> = (0..8).map(|_| Mutex::new(0)).collect();
        with_threads(2, || {
            parallel_map(&(0..8).collect::<Vec<usize>>(), |&i| {
                *seen[i].lock().unwrap() = current_threads();
            })
        });
        assert!(seen.iter().all(|m| *m.lock().unwrap() == 2));
    }

    #[test]
    fn workers_propagate_and_record_telemetry() {
        let c = ocr_obs::Collector::new();
        ocr_obs::with_collector(&c, || {
            with_threads(3, || {
                parallel_map(&(0..40).collect::<Vec<usize>>(), |&i| {
                    ocr_obs::count("task.seen", 1);
                    i
                })
            })
        });
        let t = c.snapshot();
        assert_eq!(t.counter("task.seen"), Some(40));
        assert_eq!(t.counter("exec.tasks"), Some(40));
        assert!(t.counter("exec.busy_ns").is_some());
        // A worker may find the counter exhausted before its first claim,
        // so check the per-worker counters through their sum.
        let per_worker: u64 = (0..3)
            .filter_map(|w| t.counter(&format!("exec.w{w}.tasks")))
            .sum();
        assert_eq!(per_worker, 40);
    }

    #[test]
    fn no_collector_means_no_exec_counters() {
        with_threads(3, || {
            parallel_map(&(0..8).collect::<Vec<usize>>(), |&i| i);
        });
        assert!(ocr_obs::current().is_none());
    }

    #[test]
    fn isolated_map_poisons_only_the_panicking_task() {
        let c = ocr_obs::Collector::new();
        let out = ocr_obs::with_collector(&c, || {
            with_threads(4, || {
                parallel_map_isolated(&(0..32).collect::<Vec<usize>>(), |&i| {
                    if i == 13 {
                        panic!("unlucky {i}");
                    }
                    i * 2
                })
            })
        });
        assert_eq!(out.len(), 32);
        for (i, o) in out.iter().enumerate() {
            if i == 13 {
                match o {
                    TaskOutcome::Poisoned { message } => {
                        assert!(message.contains("unlucky 13"))
                    }
                    other => panic!("expected poisoned task, got {other:?}"),
                }
            } else {
                assert_eq!(o.clone().ok(), Some(i * 2));
            }
        }
        assert_eq!(c.snapshot().counter("tasks.poisoned"), Some(1));
        // The pool is unaffected: the next region works normally.
        let next = with_threads(4, || parallel_map(&[1, 2, 3], |&x| x + 1));
        assert_eq!(next, vec![2, 3, 4]);
    }

    #[test]
    fn isolated_map_retries_transient_panics_once() {
        let attempts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let c = ocr_obs::Collector::new();
        let out = ocr_obs::with_collector(&c, || {
            with_threads(2, || {
                parallel_map_isolated(&(0..8).collect::<Vec<usize>>(), |&i| {
                    let n = attempts[i].fetch_add(1, Ordering::Relaxed);
                    if i == 5 && n == 0 {
                        panic!("transient");
                    }
                    i
                })
            })
        });
        assert_eq!(
            out[5],
            TaskOutcome::Done {
                value: 5,
                retried: true
            }
        );
        assert_eq!(attempts[5].load(Ordering::Relaxed), 2);
        let t = c.snapshot();
        assert_eq!(t.counter("tasks.retried"), Some(1));
        assert_eq!(t.counter("tasks.poisoned"), None);
    }

    #[test]
    fn workers_inherit_the_armed_fault_plan() {
        let plan = ocr_fault::plan(3)
            .fire_at("exec.test.site", 1.0, u64::MAX)
            .build();
        let fired = ocr_fault::with_plan(&plan, || {
            with_threads(4, || {
                parallel_map(&(0..32).collect::<Vec<usize>>(), |_| {
                    ocr_fault::point("exec.test.site")
                })
            })
        });
        assert!(fired.iter().all(|&f| f), "plan must reach every worker");
        assert_eq!(plan.total_fires(), 32);
        // Disarmed again outside the scope: workers see no plan.
        let quiet = with_threads(4, || {
            parallel_map(&(0..8).collect::<Vec<usize>>(), |_| {
                ocr_fault::point("exec.test.site")
            })
        });
        assert!(quiet.iter().all(|&f| !f));
    }

    #[test]
    fn ambient_enter_installs_all_four_on_another_thread() {
        let c = ocr_obs::Collector::new();
        let plan = ocr_fault::plan(5)
            .fire_at("exec.test.ambient", 1.0, 1)
            .build();
        let control = RunControl::new();
        let ambient = with_threads(3, || {
            with_control(&control, || {
                ocr_fault::with_plan(&plan, || ocr_obs::with_collector(&c, Ambient::capture))
            })
        });
        let (threads, fired) = std::thread::spawn(move || {
            ambient.enter(|| {
                ocr_obs::count("ambient.seen", 1);
                current_control().expect("control installed").charge(2);
                (current_threads(), ocr_fault::point("exec.test.ambient"))
            })
        })
        .join()
        .unwrap();
        assert_eq!((threads, fired), (3, true));
        assert_eq!(c.snapshot().counter("ambient.seen"), Some(1));
        assert_eq!(control.steps(), 2);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5], |&x| x + 1), vec![6]);
    }

    #[test]
    fn env_thread_parsing_is_deterministic() {
        // `0` is an explicit sequential request, never full parallelism.
        assert_eq!(threads_from_env("0"), Some(1));
        // Empty and all-whitespace values fall back to the machine
        // default.
        assert_eq!(threads_from_env(""), None);
        assert_eq!(threads_from_env("   "), None);
        // Non-numeric garbage falls back too, never panics.
        assert_eq!(threads_from_env("abc"), None);
        assert_eq!(threads_from_env("-4"), None);
        assert_eq!(threads_from_env("3x"), None);
        assert_eq!(threads_from_env("99999999999999999999999999"), None);
        // Ordinary positive values parse, with surrounding whitespace.
        assert_eq!(threads_from_env("8"), Some(8));
        assert_eq!(threads_from_env(" 4 "), Some(4));
    }

    #[test]
    fn halting_map_without_a_control_matches_parallel_map() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let full = with_threads(threads, || parallel_map(&items, |&x| x * 7));
            let halting = with_threads(threads, || parallel_map_halting(&items, |&x| x * 7));
            assert_eq!(halting.len(), full.len());
            assert!(halting
                .iter()
                .zip(&full)
                .all(|(h, f)| h.as_ref() == Some(f)));
        }
    }

    #[test]
    fn halting_map_stops_claiming_after_a_trip() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            // A fresh control per run: the trip flag is sticky.
            let control = RunControl::new();
            let out = with_control(&control, || {
                with_threads(threads, || {
                    parallel_map_halting(&items, |&i| {
                        if i == 5 {
                            current_control()
                                .expect("workers inherit the control")
                                .cancel();
                        }
                        i
                    })
                })
            });
            assert!(
                out.iter().any(|o| o.is_none()),
                "{threads} thread(s): a cancelled region must leave holes"
            );
            assert_eq!(out[5], Some(5), "the cancelling task itself completed");
            assert_eq!(control.tripped(), Some(TripReason::Cancelled));
        }
    }

    #[test]
    fn plain_map_ignores_a_tripped_control() {
        // `parallel_map` keeps its visits-every-item contract even under
        // a tripped ambient control.
        let control = RunControl::new();
        control.cancel();
        let out = with_control(&control, || {
            with_threads(4, || parallel_map(&(0..32).collect::<Vec<usize>>(), |&i| i))
        });
        assert_eq!(out.len(), 32);
        assert_eq!(out[31], 31);
    }

    #[test]
    fn charged_steps_aggregate_across_workers() {
        let control = RunControl::new();
        with_control(&control, || {
            with_threads(4, || {
                parallel_map(&(0..40).collect::<Vec<usize>>(), |_| {
                    current_control().expect("inherited").charge(1);
                })
            })
        });
        assert_eq!(control.steps(), 40);
    }
}
