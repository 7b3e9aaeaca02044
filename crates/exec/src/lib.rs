#![warn(missing_docs)]

//! # ocr-exec
//!
//! A hermetic, std-only **scoped work-stealing thread pool** for the
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
//! Each `parallel_map` call partitions its items into one
//! contiguous index range per worker. A worker pops from the **front**
//! of its own range; when the range is empty it **steals single items
//! from the back** of a victim's range. Ranges are packed into one
//! `AtomicU64` each (`lo` in the high half, `hi` in the low half), so
//! both pop and steal are a single compare-and-swap — no locks on the
//! scheduling path. This keeps skewed workloads (one huge net among
//! hundreds of small ones, one congested channel among many empty ones)
//! balanced without sacrificing the deterministic output order.
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
//! pool re-installs it on every worker, so spans and counters recorded
//! inside tasks aggregate into the caller's sink. Each worker also
//! reports its own task count and busy time (`exec.w{n}.tasks`,
//! `exec.w{n}.busy_ns`) plus pool-wide totals (`exec.tasks`,
//! `exec.busy_ns`). With no collector installed nothing is measured.
//!
//! ## Panics and isolation
//!
//! A panic in any task is caught on its worker and re-raised on the
//! calling thread (lowest panicking item index wins) after all workers
//! have stopped — a panicking parallel region never deadlocks and never
//! silently drops work.
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
//! the calling thread reaches fault points inside parallel tasks.
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

pub use control::{current_control, with_control, with_current_control, RunControl, TripReason};

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// One worker's claimable index range `[lo, hi)`, packed as
/// `lo << 32 | hi` so pop and steal are single CAS operations.
struct Ranges {
    slots: Vec<AtomicU64>,
}

const fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

const fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl Ranges {
    /// Splits `0..n` into `workers` near-equal contiguous ranges.
    fn split(n: usize, workers: usize) -> Ranges {
        assert!(n <= u32::MAX as usize, "parallel region too large");
        let per = n / workers;
        let extra = n % workers;
        let mut slots = Vec::with_capacity(workers);
        let mut lo = 0usize;
        for w in 0..workers {
            let len = per + usize::from(w < extra);
            slots.push(AtomicU64::new(pack(lo as u32, (lo + len) as u32)));
            lo += len;
        }
        Ranges { slots }
    }

    /// Claims the front item of worker `w`'s own range.
    fn pop_front(&self, w: usize) -> Option<usize> {
        let slot = &self.slots[w];
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match slot.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals one item from the back of some other worker's range.
    fn steal(&self, thief: usize) -> Option<usize> {
        let n = self.slots.len();
        for k in 1..n {
            let victim = (thief + k) % n;
            let slot = &self.slots[victim];
            let mut cur = slot.load(Ordering::Acquire);
            loop {
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break;
                }
                match slot.compare_exchange_weak(
                    cur,
                    pack(lo, hi - 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some((hi - 1) as usize),
                    Err(seen) => cur = seen,
                }
            }
        }
        None
    }
}

/// Runs `run(i)` for every `i in 0..n` across the pool. Panics from
/// tasks are re-raised on the caller (lowest item index wins).
fn run_indexed(n: usize, workers: usize, run: &(impl Fn(usize) + Sync)) {
    run_indexed_inner(n, workers, false, run);
}

/// [`run_indexed`], optionally cooperative with the ambient
/// [`RunControl`]: with `halt_on_trip`, workers poll the control before
/// claiming each item and stop claiming once it trips, so some items may
/// never run.
fn run_indexed_inner(n: usize, workers: usize, halt_on_trip: bool, run: &(impl Fn(usize) + Sync)) {
    let control = halt_on_trip.then(current_control).flatten();
    let halted = |c: &Option<RunControl>| c.as_ref().is_some_and(|c| c.is_tripped());
    if n == 0 {
        return;
    }
    let workers = workers.min(n);
    if workers <= 1 {
        for i in 0..n {
            if halted(&control) {
                return;
            }
            run(i);
        }
        return;
    }
    let ranges = Ranges::split(n, workers);
    // First panic by item index, so which panic surfaces does not depend
    // on thread scheduling.
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let inherit = OVERRIDE.with(|c| c.get());
    // Workers inherit the caller's telemetry collector (like the thread
    // override) so spans and counters recorded inside tasks aggregate
    // into the same sink as sequential runs. Telemetry is observational
    // only — it never changes which items run or how results merge.
    // Armed fault plans propagate the same way, so injection reaches
    // fault points inside parallel tasks; with no plan armed this is a
    // `None` handed to a no-op guard. The ambient run control rides
    // along too: charged steps inside tasks land in the caller's
    // counter, and halting regions poll the caller's trip flag.
    let obs = ocr_obs::current();
    let fault = ocr_fault::current();
    let ambient = current_control();
    std::thread::scope(|s| {
        for w in 0..workers {
            let ranges = &ranges;
            let panicked = &panicked;
            let obs = obs.clone();
            let fault = fault.clone();
            let ambient = ambient.clone();
            let control = control.clone();
            s.spawn(move || {
                OVERRIDE.with(|c| c.set(inherit));
                let active = obs.is_some();
                control::with_current_control(ambient, || {
                    ocr_fault::with_current(fault, || {
                        ocr_obs::with_current(obs, || {
                            let mut tasks = 0u64;
                            let mut busy_ns = 0u64;
                            loop {
                                if halted(&control) {
                                    break;
                                }
                                let Some(i) = ranges.pop_front(w).or_else(|| ranges.steal(w))
                                else {
                                    break;
                                };
                                // Skip only items above the lowest panic so far:
                                // a lower item may still panic, and it must win.
                                let above_panic = panicked
                                    .lock()
                                    .map(|g| g.as_ref().is_some_and(|(j, _)| *j < i))
                                    .unwrap_or(true);
                                if above_panic {
                                    continue;
                                }
                                let t0 = active.then(std::time::Instant::now);
                                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                                    let mut guard =
                                        panicked.lock().unwrap_or_else(|e| e.into_inner());
                                    match &*guard {
                                        Some((j, _)) if *j <= i => {}
                                        _ => *guard = Some((i, payload)),
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
                        });
                    });
                });
            });
        }
    });
    if let Some((_, payload)) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// Applies `f` to every element of `items` across the pool and returns
/// the results **in input order**. With one worker (or one item) it runs
/// inline on the calling thread — zero scheduling overhead and exactly
/// the sequential semantics.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let workers = current_threads();
    if workers <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_indexed(n, workers, &|i| {
        let r = f(&items[i]);
        *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("run_indexed visits every item")
        })
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
    let n = items.len();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_indexed_inner(n, current_threads(), true, &|i| {
        let r = f(&items[i]);
        *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
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

    /// A reference to the completed value, if any.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Done { value, .. } => Some(value),
            TaskOutcome::Poisoned { .. } => None,
        }
    }

    /// `true` for a task that panicked twice.
    pub fn is_poisoned(&self) -> bool {
        matches!(self, TaskOutcome::Poisoned { .. })
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
    use std::sync::atomic::AtomicUsize;

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
        // One item carries almost all the work; stealing must not lose
        // or duplicate anything.
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
    fn range_packing_roundtrips() {
        let r = Ranges::split(10, 3);
        assert_eq!(unpack(r.slots[0].load(Ordering::Relaxed)), (0, 4));
        assert_eq!(unpack(r.slots[1].load(Ordering::Relaxed)), (4, 7));
        assert_eq!(unpack(r.slots[2].load(Ordering::Relaxed)), (7, 10));
        assert_eq!(r.pop_front(0), Some(0));
        assert_eq!(r.steal(0), Some(6));
        assert_eq!(r.pop_front(1), Some(4));
        assert_eq!(r.pop_front(1), Some(5));
        assert_eq!(r.pop_front(1), None);
        assert_eq!(r.steal(1), Some(9));
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
        // Stealing may leave any one worker without a task, so check the
        // per-worker counters through their sum.
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
                assert_eq!(o.as_ok(), Some(&(i * 2)));
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
