//! Service resources for analytic event-driven models.
//!
//! Many of the models in this workspace (PCIe DMA directions, HBM
//! channels, accelerator cores, control threads) are *sequential servers*:
//! a request arriving at time `t` with service time `d` occupies the
//! server from `max(t, server_free)` to `max(t, server_free) + d`.
//! Chains of such reservations reproduce queueing, pipelining and overlap
//! behaviour exactly, without needing explicit event objects.
//!
//! [`Timeline`] is that server. It tracks its busy time so benches can
//! report how busy each resource was — which is how the paper identifies
//! PCIe as the bottleneck.

use crate::time::{SimDuration, SimTime};

/// The outcome of a reservation: when service started and ended, and how
/// long the request waited in queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (>= request time).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
    /// Queueing delay experienced: `start - request_time`.
    pub waited: SimDuration,
}

/// A single sequential server with FIFO semantics.
#[derive(Debug, Clone)]
pub struct Timeline {
    name: &'static str,
    free_at: SimTime,
    busy: SimDuration,
}

impl Timeline {
    /// Create an idle server. `name` labels utilization reports.
    pub fn new(name: &'static str) -> Self {
        Timeline {
            name,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// Reserve the server at or after `at` for `service` time.
    pub fn reserve(&mut self, at: SimTime, service: SimDuration) -> Grant {
        let start = at.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        Grant {
            start,
            end,
            waited: start.saturating_since(at),
        }
    }

    /// The time at which the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Utilization in `[0, 1]` over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Label given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }
    fn d(ps: u64) -> SimDuration {
        SimDuration::from_ps(ps)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = Timeline::new("pcie");
        let g = s.reserve(t(100), d(50));
        assert_eq!(g.start, t(100));
        assert_eq!(g.end, t(150));
        assert_eq!(g.waited, SimDuration::ZERO);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = Timeline::new("pcie");
        s.reserve(t(0), d(100));
        let g = s.reserve(t(10), d(30));
        assert_eq!(g.start, t(100));
        assert_eq!(g.end, t(130));
        assert_eq!(g.waited, d(90));
    }

    #[test]
    fn gaps_leave_idle_time() {
        let mut s = Timeline::new("pe");
        s.reserve(t(0), d(10));
        let g = s.reserve(t(100), d(10));
        assert_eq!(g.start, t(100)); // idle 10..100
        assert_eq!(s.busy_time(), d(20));
        let u = s.utilization(t(110));
        assert!((u - 20.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamps_and_handles_zero_horizon() {
        let mut s = Timeline::new("x");
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
        s.reserve(t(0), d(100));
        assert_eq!(s.utilization(t(50)), 1.0); // clamped
    }
}
