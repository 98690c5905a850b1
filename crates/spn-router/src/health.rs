//! Per-backend health: an Up/Degraded/Down state machine fed by both
//! the active prober and the forwarding path.
//!
//! The state machine is deliberately asymmetric: one failure demotes
//! `Up → Degraded` immediately (the next request already prefers a
//! sibling replica), but it takes `fail_threshold` *consecutive*
//! failures to declare `Down` and `recover_threshold` consecutive
//! successes to re-admit — so a single dropped packet neither
//! blacklists a backend nor lets a flapping one bounce in and out of
//! rotation.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Health-checker tuning.
#[derive(Debug, Clone)]
pub struct HealthPolicy {
    /// Time between active `Ping` probes of each backend.
    pub interval: Duration,
    /// Per-probe budget (TCP connect + ping round trip).
    pub timeout: Duration,
    /// Consecutive failures that declare a backend `Down`.
    pub fail_threshold: u32,
    /// Consecutive successes that re-admit a `Down` backend.
    pub recover_threshold: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            interval: Duration::from_millis(250),
            timeout: Duration::from_millis(500),
            fail_threshold: 3,
            recover_threshold: 2,
        }
    }
}

/// A backend's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Probes and forwards are succeeding.
    Up,
    /// At least one recent failure; still routable, but replicas in
    /// better shape are preferred.
    Degraded,
    /// `fail_threshold` consecutive failures; not routed to except as
    /// a last resort, until the prober re-admits it.
    Down,
}

impl HealthState {
    /// Stable lower-case name used in telemetry.
    pub(crate) fn name(self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

struct Counters {
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
}

/// One backend's health cell. Shared by the prober thread (active
/// signal) and the loop threads that forward (passive signal).
pub struct HealthCell {
    inner: Mutex<Counters>,
    transitions: AtomicU64,
    policy_fail: u32,
    policy_recover: u32,
}

impl HealthCell {
    /// A new cell, born `Up` under the given thresholds.
    pub(crate) fn new(policy: &HealthPolicy) -> HealthCell {
        HealthCell {
            inner: Mutex::new(Counters {
                state: HealthState::Up,
                consecutive_failures: 0,
                consecutive_successes: 0,
            }),
            transitions: AtomicU64::new(0),
            policy_fail: policy.fail_threshold.max(1),
            policy_recover: policy.recover_threshold.max(1),
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> HealthState {
        self.inner.lock().state
    }

    /// True when the backend should receive regular traffic
    /// (`Up` or `Degraded`).
    pub(crate) fn is_routable(&self) -> bool {
        self.state() != HealthState::Down
    }

    /// Health-state transitions since startup.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Record a successful probe or forward.
    pub(crate) fn record_success(&self) {
        let mut c = self.inner.lock();
        c.consecutive_failures = 0;
        c.consecutive_successes = c.consecutive_successes.saturating_add(1);
        let next = match c.state {
            HealthState::Up => HealthState::Up,
            HealthState::Degraded => HealthState::Up,
            HealthState::Down if c.consecutive_successes >= self.policy_recover => HealthState::Up,
            HealthState::Down => HealthState::Down,
        };
        self.transition(&mut c, next);
    }

    /// Record a failed probe or forward.
    pub(crate) fn record_failure(&self) {
        let mut c = self.inner.lock();
        c.consecutive_successes = 0;
        c.consecutive_failures = c.consecutive_failures.saturating_add(1);
        let next = if c.consecutive_failures >= self.policy_fail {
            HealthState::Down
        } else {
            match c.state {
                HealthState::Up => HealthState::Degraded,
                s => s,
            }
        };
        self.transition(&mut c, next);
    }

    fn transition(&self, c: &mut Counters, next: HealthState) {
        if c.state != next {
            c.state = next;
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> HealthCell {
        HealthCell::new(&HealthPolicy {
            fail_threshold: 3,
            recover_threshold: 2,
            ..HealthPolicy::default()
        })
    }

    #[test]
    fn one_failure_degrades_but_stays_routable() {
        let c = cell();
        c.record_failure();
        assert_eq!(c.state(), HealthState::Degraded);
        assert!(c.is_routable());
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn consecutive_failures_take_a_backend_down() {
        let c = cell();
        for _ in 0..3 {
            c.record_failure();
        }
        assert_eq!(c.state(), HealthState::Down);
        assert!(!c.is_routable());
        // Up → Degraded → Down.
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn interleaved_successes_reset_the_failure_run() {
        let c = cell();
        c.record_failure();
        c.record_failure();
        c.record_success(); // resets the run, back Up
        assert_eq!(c.state(), HealthState::Up);
        c.record_failure();
        c.record_failure();
        assert_eq!(c.state(), HealthState::Degraded, "run restarted from 0");
    }

    #[test]
    fn recovery_needs_consecutive_successes() {
        let c = cell();
        for _ in 0..3 {
            c.record_failure();
        }
        c.record_success();
        assert_eq!(c.state(), HealthState::Down, "one success is not enough");
        c.record_failure(); // breaks the success run
        c.record_success();
        assert_eq!(c.state(), HealthState::Down);
        c.record_success();
        assert_eq!(c.state(), HealthState::Up, "re-admitted after 2 in a row");
    }
}
