//! Cooperative run control: a shared cancel token, a deterministic
//! step budget, and a best-effort wall-clock deadline, all tripping the
//! same sticky flag.
//!
//! A [`RunControl`] is a cheap cloneable handle. Long-running loops
//! *charge* deterministic work steps against it and *poll* it at clean
//! stopping points; parallel regions poll it between tasks (see
//! [`parallel_map_halting`](crate::parallel_map_halting)). Nothing is
//! ever pre-empted — a tripped control only stops work at the next
//! boundary the worker chooses to check, which is what keeps partially
//! completed runs consistent.
//!
//! The three trip sources differ in determinism:
//!
//! * [`RunControl::cancel`] — programmatic, trips immediately.
//! * A **step budget** counts units of work the *caller* defines (the
//!   router charges one step per search-window expansion and one per
//!   rip-up). Steps are counted in an atomic shared by every worker, so
//!   a budgeted run trips at the same total step count regardless of
//!   thread count — the foundation of the byte-identical
//!   interrupt/resume contract.
//! * A **deadline** is polled lazily whenever the control is consulted;
//!   it is best-effort by nature and makes no determinism promise.
//!
//! The flag is *sticky* and first-trip-wins: once tripped, the reason
//! never changes and [`RunControl::tripped`] reports it forever.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`RunControl`] stopped the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The deterministic step budget was exhausted.
    BudgetExceeded,
    /// The wall-clock deadline passed (best-effort, nondeterministic).
    DeadlineExceeded,
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripReason::Cancelled => "cancelled",
            TripReason::BudgetExceeded => "budget-exceeded",
            TripReason::DeadlineExceeded => "deadline-exceeded",
        })
    }
}

/// `tripped` encoding: 0 is live, otherwise `TripReason` + 1.
const LIVE: u8 = 0;

fn encode(reason: TripReason) -> u8 {
    match reason {
        TripReason::Cancelled => 1,
        TripReason::BudgetExceeded => 2,
        TripReason::DeadlineExceeded => 3,
    }
}

fn decode(v: u8) -> Option<TripReason> {
    match v {
        1 => Some(TripReason::Cancelled),
        2 => Some(TripReason::BudgetExceeded),
        3 => Some(TripReason::DeadlineExceeded),
        _ => None,
    }
}

#[derive(Debug)]
struct ControlInner {
    tripped: AtomicU8,
    steps: AtomicU64,
    budget: Option<u64>,
    deadline: Option<Instant>,
}

/// A shared cancel-token / step-budget / deadline handle. Clones share
/// one trip flag and one step counter.
#[derive(Clone, Debug)]
pub struct RunControl {
    inner: Arc<ControlInner>,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl::new()
    }
}

impl RunControl {
    /// An unbounded control: it never trips on its own but can still be
    /// [cancelled](RunControl::cancel).
    pub fn new() -> RunControl {
        RunControl {
            inner: Arc::new(ControlInner {
                tripped: AtomicU8::new(LIVE),
                steps: AtomicU64::new(0),
                budget: None,
                deadline: None,
            }),
        }
    }

    /// Rebuilds the handle with changed limits, carrying the current
    /// trip state and step count over. Configure *before* sharing the
    /// handle — existing clones keep pointing at the old state.
    fn reconfigure(self, budget: Option<u64>, deadline: Option<Instant>) -> RunControl {
        RunControl {
            inner: Arc::new(ControlInner {
                tripped: AtomicU8::new(self.inner.tripped.load(Ordering::Acquire)),
                steps: AtomicU64::new(self.inner.steps.load(Ordering::Acquire)),
                budget,
                deadline,
            }),
        }
    }

    /// Sets a deterministic step budget: the control trips with
    /// [`TripReason::BudgetExceeded`] on the charge that takes the step
    /// total *past* `budget` (so `budget` steps are allowed and step
    /// `budget + 1` trips). A budget of 0 trips on the first charge.
    pub fn with_step_budget(self, budget: u64) -> RunControl {
        let deadline = self.inner.deadline;
        self.reconfigure(Some(budget), deadline)
    }

    /// Sets a best-effort wall-clock deadline `after` from now. The
    /// deadline is polled whenever the control is consulted, so a
    /// worker stalled inside one task overshoots it.
    pub fn with_deadline_in(self, after: Duration) -> RunControl {
        let budget = self.inner.budget;
        self.reconfigure(budget, Some(Instant::now() + after))
    }

    /// Preloads the step counter, for resuming a checkpointed run whose
    /// charged steps must stay cumulative across the interruption.
    pub fn resumed_at(self, steps: u64) -> RunControl {
        self.inner.steps.store(steps, Ordering::Release);
        self
    }

    /// Trips the control with [`TripReason::Cancelled`]. Idempotent; a
    /// control that already tripped keeps its original reason.
    pub fn cancel(&self) {
        self.trip(TripReason::Cancelled);
    }

    fn trip(&self, reason: TripReason) {
        // First trip wins: only a live flag can be claimed.
        let _ = self.inner.tripped.compare_exchange(
            LIVE,
            encode(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Steps charged so far, across every clone of the handle.
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Acquire)
    }

    /// Charges `n` deterministic work steps and returns the trip state
    /// afterwards. The charge lands even when it trips the budget, so
    /// the recorded step count says how much work was *attempted*.
    pub fn charge(&self, n: u64) -> Option<TripReason> {
        let total = self.inner.steps.fetch_add(n, Ordering::AcqRel) + n;
        if let Some(budget) = self.inner.budget {
            if total > budget {
                self.trip(TripReason::BudgetExceeded);
            }
        }
        self.tripped()
    }

    /// The trip reason, if the control has tripped. Polls the budget
    /// and deadline lazily, so merely asking can trip the control.
    pub fn tripped(&self) -> Option<TripReason> {
        if let Some(reason) = decode(self.inner.tripped.load(Ordering::Acquire)) {
            return Some(reason);
        }
        // A resumed run can preload more steps than this slice's budget
        // (after a crash the checkpoint on disk may be ahead of the
        // journaled grant); the overdraft trips on the first poll,
        // exactly as the charge that crossed the budget would have.
        if let Some(budget) = self.inner.budget {
            if self.steps() > budget {
                self.trip(TripReason::BudgetExceeded);
                return decode(self.inner.tripped.load(Ordering::Acquire));
            }
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TripReason::DeadlineExceeded);
                return decode(self.inner.tripped.load(Ordering::Acquire));
            }
        }
        None
    }

    /// `true` once the control has tripped for any reason.
    pub fn is_tripped(&self) -> bool {
        self.tripped().is_some()
    }
}

thread_local! {
    /// The control cooperative loops on this thread consult.
    static CURRENT: RefCell<Option<RunControl>> = const { RefCell::new(None) };
}

/// Installs `control` as the ambient run control for the duration of
/// `f`. The pool propagates the ambient control to its workers exactly
/// like telemetry collectors and fault plans, so halting parallel
/// regions and charged loops inside tasks all see the caller's control.
pub fn with_control<R>(control: &RunControl, f: impl FnOnce() -> R) -> R {
    with_current_control(Some(control.clone()), f)
}

/// Installs `control` (or clears the slot with `None`) for the duration
/// of `f`, restoring the previous value on exit, including on panic.
pub(crate) fn with_current_control<R>(control: Option<RunControl>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<RunControl>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), control));
    let _restore = Restore(prev);
    f()
}

/// The run control installed on this thread, if any.
pub fn current_control() -> Option<RunControl> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_control_is_live_and_cancel_is_sticky() {
        let c = RunControl::new();
        assert_eq!(c.tripped(), None);
        assert!(!c.is_tripped());
        c.cancel();
        assert_eq!(c.tripped(), Some(TripReason::Cancelled));
        // A later budget trip cannot overwrite the first reason.
        let c = c.with_step_budget(0);
        assert_eq!(c.charge(1), Some(TripReason::Cancelled));
    }

    #[test]
    fn budget_allows_exactly_budget_steps() {
        let c = RunControl::new().with_step_budget(3);
        assert_eq!(c.charge(1), None);
        assert_eq!(c.charge(1), None);
        assert_eq!(c.charge(1), None);
        assert_eq!(c.steps(), 3);
        assert_eq!(c.charge(1), Some(TripReason::BudgetExceeded));
        assert_eq!(c.steps(), 4, "the tripping charge still lands");
    }

    #[test]
    fn zero_budget_trips_on_first_charge() {
        let c = RunControl::new().with_step_budget(0);
        assert_eq!(c.tripped(), None, "no charge, no trip");
        assert_eq!(c.charge(1), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn resumed_steps_count_against_the_budget() {
        let c = RunControl::new().with_step_budget(10).resumed_at(9);
        assert_eq!(c.charge(1), None);
        assert_eq!(c.charge(1), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn overdrawn_resume_trips_on_first_poll() {
        // A checkpoint written after the tripping charge can preload
        // more steps than the slice's budget; the poll must trip
        // without waiting for a charge.
        let c = RunControl::new().with_step_budget(10).resumed_at(12);
        assert_eq!(c.tripped(), Some(TripReason::BudgetExceeded));
        let exact = RunControl::new().with_step_budget(10).resumed_at(10);
        assert_eq!(exact.tripped(), None, "steps == budget is not over");
    }

    #[test]
    fn overshooting_charge_still_lands_in_steps() {
        let c = RunControl::new().with_step_budget(10).resumed_at(4);
        c.charge(8);
        assert_eq!(c.steps(), 12, "the overshooting charge still lands");
    }

    #[test]
    fn expired_deadline_trips_on_poll() {
        let c = RunControl::new().with_deadline_in(Duration::from_millis(0));
        assert_eq!(c.tripped(), Some(TripReason::DeadlineExceeded));
    }

    #[test]
    fn clones_share_state() {
        let a = RunControl::new().with_step_budget(5);
        let b = a.clone();
        b.charge(5);
        assert_eq!(a.steps(), 5);
        assert_eq!(a.charge(1), Some(TripReason::BudgetExceeded));
        assert_eq!(b.tripped(), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn ambient_control_installs_and_restores() {
        assert!(current_control().is_none());
        let c = RunControl::new();
        with_control(&c, || {
            let seen = current_control().expect("installed");
            seen.cancel();
        });
        assert!(current_control().is_none());
        assert!(c.is_tripped(), "ambient clone shares the flag");
    }
}
