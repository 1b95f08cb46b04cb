//! Cooperative progress reporting and cancellation for long simulations.
//!
//! The sweep runner in `gramer-bench` runs each sweep point under a
//! wall-clock watchdog. The watchdog needs two things from the simulator:
//! a *liveness signal* (is the point still computing?) and a *kill switch*
//! (stop a point that exceeded its budget). Both flow through a
//! [`ProgressToken`]:
//!
//! * the simulator's event loop hoists the installed token out of the
//!   thread-local once per run ([`current`]) and calls
//!   [`ProgressToken::checkpoint`] once per 256 events, which bumps the
//!   token's heartbeat counter — the watchdog reads it to report
//!   liveness;
//! * when the watchdog decides a point is over budget it calls
//!   [`ProgressToken::cancel`]; the *next* [`tick`] or checkpoint on the
//!   simulating thread unwinds with a [`Cancelled`] payload, which the
//!   sweep runner's panic quarantine converts into a structured
//!   `timed_out` record.
//!
//! Cancellation is cooperative: code that never ticks cannot be stopped.
//! The simulator ticks every few hundred event-loop iterations, so real
//! sweep points still respond within microseconds; arbitrary user
//! closures are only covered if they call [`tick`] themselves.
//!
//! Tokens are installed per thread ([`install`]) so a multi-threaded sweep
//! can watch each worker independently; [`tick`] is a no-op when no token
//! is installed, which keeps standalone `Simulator::run` calls unaffected.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Panic payload carried by a cancellation unwind.
///
/// Catchers (the sweep runner's quarantine) downcast the payload of
/// `catch_unwind` to this type to distinguish "the watchdog stopped this
/// point" from a genuine crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// A shared heartbeat + cancellation flag pair watching one thread.
///
/// Cloning shares the underlying counters (the watchdog keeps one clone,
/// the worker installs the other).
#[derive(Debug, Clone, Default)]
pub struct ProgressToken {
    heartbeat: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
}

impl ProgressToken {
    /// Creates a fresh token (heartbeat 0, not cancelled).
    pub fn new() -> Self {
        ProgressToken::default()
    }

    /// Records `n` units of forward progress directly on this token —
    /// `n` [`tick`]s without the thread-local lookup.
    ///
    /// The epoch-batched simulator loop clones the installed token out
    /// of the thread-local once per run ([`current`]) and then
    /// checkpoints against it: an epoch boundary is a plain relaxed
    /// load, which keeps the watchdog's cancellation-latency bound (at
    /// least one check per epoch) essentially free. Like [`tick`],
    /// unwinds with a [`Cancelled`] payload — before bumping the
    /// heartbeat — when cancellation has been requested; `checkpoint(0)`
    /// is a pure cancellation check.
    #[inline]
    pub fn checkpoint(&self, n: u64) {
        if self.cancel.load(Ordering::Relaxed) {
            std::panic::panic_any(Cancelled);
        }
        if n > 0 {
            self.heartbeat.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The number of [`tick`]s observed so far.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Requests cancellation: the next [`tick`] on the installed thread
    /// unwinds with a [`Cancelled`] payload.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
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
/// per batch. The clone shares the installed token's counters, so the
/// watchdog observes heartbeats and delivers cancellation identically.
pub fn current() -> Option<ProgressToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Records one unit of forward progress on the current thread.
///
/// No-op when no token is installed. If the installed token has been
/// [cancelled](ProgressToken::cancel), unwinds with a [`Cancelled`]
/// payload instead of returning.
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
    fn cancel_unwinds_next_tick_with_typed_payload() {
        let tok = ProgressToken::new();
        let watcher = tok.clone();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = install(tok);
            tick();
            watcher.cancel();
            tick(); // unwinds here
            unreachable!("tick after cancel must not return");
        }));
        let payload = match caught {
            Err(p) => p,
            Ok(_) => panic!("closure returned normally"),
        };
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        assert_eq!(watcher.heartbeat(), 1);
        // The guard restored the empty state during unwind.
        tick();
        assert_eq!(watcher.heartbeat(), 1);
    }

    #[test]
    fn checkpoint_batches_heartbeat_and_checks_cancel() {
        let tok = ProgressToken::new();
        let watcher = tok.clone();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            tok.checkpoint(256);
            tok.checkpoint(0); // cancel check only, no heartbeat change
            watcher.cancel();
            tok.checkpoint(0); // unwinds here despite the zero batch
            unreachable!("checkpoint after cancel must not return");
        }));
        assert!(caught.is_err());
        assert_eq!(watcher.heartbeat(), 256);
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
