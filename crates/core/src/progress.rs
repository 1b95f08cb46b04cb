//! Cooperative progress reporting and run budgets for long simulations.
//!
//! The sweep runner in `gramer-bench` bounds each sweep point with a
//! wall-clock budget, and `gramer-serve` bounds each job with a deadline
//! and a step budget. Both fix the budget in a [`ProgressToken`] when
//! they create it ([`ProgressToken::with_budget`]) and install the token
//! on the thread that runs the work. No other thread watches it: the
//! simulating thread enforces the budget itself.
//!
//! * The simulator's event loop hoists the installed token out of the
//!   thread-local once per run ([`current`]) and calls
//!   [`ProgressToken::checkpoint`] once per 256 events. Each flush bumps
//!   the token's heartbeat and checks the budget: the heartbeat against
//!   the tick budget, and one clock read against the deadline.
//! * A flush that finds a budget spent unwinds with a [`Cancelled`]
//!   payload naming it. The sweep runner's and the daemon's panic
//!   quarantine ([`crate::supervise`]) turn that unwind into a
//!   structured `timed_out` record.
//!
//! Enforcement is cooperative: code that never ticks cannot be stopped.
//! A batch of 256 simulator events is bounded host work, so a simulation
//! stops within one batch of spending its budget; arbitrary user closures
//! are only covered if they call [`tick`] themselves. A tick budget counts
//! heartbeats, not host time, so whether it is spent does not depend on
//! how fast the host runs.
//!
//! Tokens are installed per thread ([`install`]); [`tick`] is a no-op when
//! no token is installed, which keeps standalone `Simulator::run` calls
//! unaffected.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Panic payload carried by a budget unwind, naming the spent budget.
///
/// Catchers (the quarantine in [`crate::supervise`]) downcast the payload
/// of `catch_unwind` to this type to tell "this run spent its budget"
/// from a genuine crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cancelled {
    /// The heartbeat passed the token's tick budget.
    Ticks,
    /// The token's wall-clock deadline passed.
    Deadline,
}

/// A shared heartbeat counter plus the budget it runs under.
///
/// Cloning shares the heartbeat (the creator keeps one clone to read it,
/// the worker installs the other); the budget is fixed at creation.
#[derive(Debug, Clone, Default)]
pub struct ProgressToken {
    heartbeat: Arc<AtomicU64>,
    deadline: Option<Instant>,
    max_ticks: Option<u64>,
}

impl ProgressToken {
    /// Creates an unbounded token (heartbeat 0, no budget).
    pub fn new() -> Self {
        ProgressToken::default()
    }

    /// Creates a token whose [`checkpoint`](ProgressToken::checkpoint)
    /// unwinds once `deadline` has passed since this call, or once the
    /// heartbeat exceeds `max_ticks`. `None` leaves that budget unbounded,
    /// and so does a deadline too far ahead for [`Instant`] to hold.
    pub fn with_budget(deadline: Option<Duration>, max_ticks: Option<u64>) -> Self {
        ProgressToken {
            heartbeat: Arc::default(),
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            max_ticks,
        }
    }

    /// Records `n` units of forward progress directly on this token —
    /// `n` [`tick`]s without the thread-local lookup — then checks the
    /// budget.
    ///
    /// The simulator's event loop clones the installed token out of the
    /// thread-local once per run ([`current`]) and flushes its heartbeat
    /// here once per 256 events, so the budget check (one clock read when
    /// a deadline is set) costs nothing measurable.
    ///
    /// # Panics
    ///
    /// Unwinds with a [`Cancelled`] payload when the heartbeat now
    /// exceeds the tick budget, or the deadline has passed.
    #[inline]
    pub fn checkpoint(&self, n: u64) {
        let beats = self.heartbeat.fetch_add(n, Ordering::Relaxed) + n;
        if self.max_ticks.is_some_and(|max| beats > max) {
            std::panic::panic_any(Cancelled::Ticks);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            std::panic::panic_any(Cancelled::Deadline);
        }
    }

    /// The number of [`tick`]s observed so far.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }
}

/// A budget given in seconds, as a [`Duration`]: `None` unless `secs`
/// is a positive number of seconds that a `Duration` can hold (not
/// zero, negative, NaN, infinite, or past ~1.8e19 s). Every entry point
/// that reads a budget in seconds converts it here, once.
pub fn budget_from_secs(secs: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| !d.is_zero())
}

thread_local! {
    static CURRENT: RefCell<Option<ProgressToken>> = const { RefCell::new(None) };
}

/// Guard returned by [`install`]; restores the previous token on drop
/// (including during a panic unwind, so quarantined points can't leak a
/// stale token into the worker thread's next point).
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<ProgressToken>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Installs `token` as the current thread's progress token for the
/// lifetime of the returned guard.
pub fn install(token: ProgressToken) -> InstallGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
    InstallGuard { prev }
}

/// A clone of the current thread's installed token, if any.
///
/// Long-running loops hoist this out of the thread-local once and call
/// [`ProgressToken::checkpoint`] instead of paying the [`tick`] lookup
/// per batch. The clone shares the installed token's heartbeat and
/// budget, so it is enforced identically.
pub fn current() -> Option<ProgressToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Records one unit of forward progress on the current thread.
///
/// No-op when no token is installed. When the installed token's budget
/// is spent, unwinds with a [`Cancelled`] payload instead of returning
/// (see [`ProgressToken::checkpoint`]).
#[inline]
pub fn tick() {
    CURRENT.with(|c| {
        if let Some(tok) = c.borrow().as_ref() {
            tok.checkpoint(1);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f`, which must unwind, and returns the budget it spent.
    fn spent(f: impl FnOnce()) -> Cancelled {
        match catch_unwind(AssertUnwindSafe(f)) {
            Err(payload) => *payload
                .downcast_ref::<Cancelled>()
                .expect("a Cancelled payload"),
            Ok(()) => panic!("the budget never fired"),
        }
    }

    #[test]
    fn tick_without_token_is_noop() {
        tick();
        tick();
    }

    #[test]
    fn tick_bumps_installed_heartbeat() {
        let tok = ProgressToken::new();
        let guard = install(tok.clone());
        tick();
        tick();
        tick();
        drop(guard);
        assert_eq!(tok.heartbeat(), 3);
        // After the guard drops, ticks no longer touch the token.
        tick();
        assert_eq!(tok.heartbeat(), 3);
    }

    #[test]
    fn tick_budget_unwinds_with_the_ticks_reason() {
        let tok = ProgressToken::with_budget(None, Some(2));
        let reason = spent(|| {
            let _guard = install(tok.clone());
            tick();
            tick(); // heartbeat 2: at the budget, not past it
            tick(); // unwinds here
            unreachable!("tick past the budget must not return");
        });
        assert_eq!(reason, Cancelled::Ticks);
        assert_eq!(tok.heartbeat(), 3);
        // The guard restored the empty state during unwind.
        tick();
        assert_eq!(tok.heartbeat(), 3);
    }

    #[test]
    fn checkpoint_batches_heartbeat_against_the_budget() {
        let tok = ProgressToken::with_budget(None, Some(300));
        tok.checkpoint(256);
        assert_eq!(tok.heartbeat(), 256);
        assert_eq!(spent(|| tok.checkpoint(256)), Cancelled::Ticks);
        assert_eq!(tok.heartbeat(), 512);
    }

    #[test]
    fn zero_deadline_unwinds_at_the_first_checkpoint() {
        let tok = ProgressToken::with_budget(Some(Duration::ZERO), None);
        assert_eq!(spent(|| tok.checkpoint(1)), Cancelled::Deadline);
        assert_eq!(tok.heartbeat(), 1);
    }

    #[test]
    fn unrepresentable_deadline_never_fires() {
        let tok = ProgressToken::with_budget(Some(Duration::MAX), Some(u64::MAX));
        tok.checkpoint(1 << 20);
        let _guard = install(tok.clone());
        tick();
        assert_eq!(tok.heartbeat(), (1 << 20) + 1);
    }

    #[test]
    fn budgets_in_seconds_must_fit_a_duration() {
        assert_eq!(budget_from_secs(2.5), Some(Duration::from_millis(2500)));
        for bad in [0.0, -1.0, 1e-300, 1e300, f64::NAN, f64::INFINITY] {
            assert_eq!(budget_from_secs(bad), None, "{bad}");
        }
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = ProgressToken::new();
        let inner = ProgressToken::new();
        let og = install(outer.clone());
        tick();
        {
            let _ig = install(inner.clone());
            tick();
            tick();
        }
        tick();
        drop(og);
        assert_eq!(outer.heartbeat(), 2);
        assert_eq!(inner.heartbeat(), 2);
    }
}
