//! The process clock: one monotonic epoch, one seam.
//!
//! Every timestamp in the tree — spans, histograms, lease deadlines,
//! heartbeats, retry backoff, wire timestamps — is a reading of [`now`]
//! (or [`now_us`], the same instant in whole microseconds), so traces and
//! protocol code share one timeline and the Chrome export needs no
//! renormalization. Protocol code waits through [`sleep`] instead of
//! `thread::sleep`. Under normal operation both delegate to the OS. A
//! simulation harness (ea-chaos) installs a [`Clock`] override for the
//! current thread, after which the same code runs on virtual time:
//! `now()` reads the simulated instant, `sleep()` advances it without
//! blocking, and spans recorded meanwhile carry virtual timestamps.
//!
//! The override is thread-local on purpose: the single-threaded discrete
//! event scheduler owns all simulated actors, while threads spawned by real
//! deployments (reaper threads, reactor threads) keep seeing real time.
//!
//! Timestamps are `Duration`s since an arbitrary process-wide epoch, not
//! `Instant`s, so simulated and real time share one representation.
//! `ea_comms::clock` re-exports this module next to its `Waiter` and
//! `OffsetEstimator`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A source of time plus the ability to wait. Implementations must be
/// monotonic: successive `now()` calls never go backwards.
pub trait Clock {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
    /// Block (or, in simulation, advance virtual time) for `d`.
    fn sleep(&self, d: Duration);
}

thread_local! {
    static OVERRIDE: RefCell<Option<Rc<dyn Clock>>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Current time on the active clock: the thread-local override if one is
/// installed, otherwise monotonic wall time since the process epoch.
pub fn now() -> Duration {
    OVERRIDE.with(|c| match &*c.borrow() {
        Some(clock) => clock.now(),
        None => epoch().elapsed(),
    })
}

/// Sleep on the active clock. Real thread sleep without an override;
/// virtual-time advance under simulation.
pub fn sleep(d: Duration) {
    // Clone the Rc out of the borrow before sleeping so a clock whose
    // `sleep` re-enters `now()` does not hit a RefCell double-borrow.
    let clock = OVERRIDE.with(|c| c.borrow().clone());
    match clock {
        Some(clock) => clock.sleep(d),
        None => {
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
}

/// True if a simulated clock override is installed on this thread.
pub fn is_overridden() -> bool {
    OVERRIDE.with(|c| c.borrow().is_some())
}

/// Installs `clock` as this thread's time source; restores the previous
/// source when dropped. Nested installs stack.
pub struct ClockGuard {
    prev: Option<Rc<dyn Clock>>,
}

/// Install a clock override on the current thread for the lifetime of the
/// returned guard.
pub fn install(clock: Rc<dyn Clock>) -> ClockGuard {
    let prev = OVERRIDE.with(|c| c.borrow_mut().replace(clock));
    ClockGuard { prev }
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Current time on the active clock in whole microseconds — the unit
/// trace spans and the wire timestamps (`Heartbeat`, `OpsPush` and their
/// acks) use.
pub fn now_us() -> u64 {
    now().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock {
        t: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            Duration::from_nanos(self.t.get())
        }
        fn sleep(&self, d: Duration) {
            self.t.set(self.t.get() + d.as_nanos() as u64);
        }
    }

    #[test]
    fn override_redirects_now_and_sleep() {
        assert!(!is_overridden());
        let fake = Rc::new(FakeClock { t: Cell::new(5) });
        {
            let _g = install(fake.clone());
            assert!(is_overridden());
            assert_eq!(now(), Duration::from_nanos(5));
            sleep(Duration::from_nanos(37));
            assert_eq!(now(), Duration::from_nanos(42));
        }
        assert!(!is_overridden());
        // Real clock advances between calls.
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn nested_installs_stack() {
        let outer = Rc::new(FakeClock { t: Cell::new(100) });
        let inner = Rc::new(FakeClock { t: Cell::new(7) });
        let _g1 = install(outer);
        assert_eq!(now(), Duration::from_nanos(100));
        {
            let _g2 = install(inner);
            assert_eq!(now(), Duration::from_nanos(7));
        }
        assert_eq!(now(), Duration::from_nanos(100));
    }
}
