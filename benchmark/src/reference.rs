//! The benchmark-owned reference kernel and the speed factor derived
//! from it.
//!
//! The sandbox this benchmark runs in changes speed by 15–30 % from
//! one tenth of a second to the next (a 2-vCPU nested VM that shares
//! its cores), and stays slow for minutes at a time. The kernel below
//! never calls repository code, so the CPU time it needs moves with
//! the machine and not with any change under test. Every caller thread
//! runs it every few milliseconds *between its own requests*, on the
//! CPU the workload runs on, and times it with the thread's CPU clock,
//! so that being preempted by the system under test does not count.
//! A segment's time-valued metrics are divided by the mean of its
//! probes over the nominal value.
//!
//! Two kernel runs bracketing a multi-second segment, as first tried,
//! predicted the segment's own speed with a correlation of only
//! 0.3–0.6: the machine's speed has moved on by the time the segment
//! is under way.

use crate::sys::thread_cpu_ns;
use std::time::{Duration, Instant};

/// CPU time of one probe on this sandbox when it is undisturbed, in
/// ns. Fixed: changing it rescales every normalised metric.
pub const NOMINAL_PROBE_NS: f64 = 160_000.0;

const PROBE_ITERATIONS: u64 = 15_000;
/// A caller probes once this much time has passed since its last
/// probe: about 1 % of its time.
const PROBE_EVERY: Duration = Duration::from_millis(15);

/// `Σ ln(1 + exp(−x))` over a fixed ramp of `x`: latency-bound f64
/// transcendental work, the same kind the plan executor does.
fn softplus_sum(iterations: u64) -> f64 {
    let mut acc = 0.0f64;
    let mut x = 0.001f64;
    for _ in 0..iterations {
        acc += (1.0 + (-x).exp()).ln();
        x += 1e-6;
    }
    acc
}

/// Thread CPU time of one kernel run, in ns. A tenth of a run goes
/// first, untimed: a caller probes straight after waking up from a
/// wait, and the first microseconds on cold caches and predictors are
/// the wake-up's cost, not the machine's speed.
pub fn probe_ns() -> f64 {
    std::hint::black_box(softplus_sum(std::hint::black_box(PROBE_ITERATIONS / 10)));
    let t0 = thread_cpu_ns();
    std::hint::black_box(softplus_sum(std::hint::black_box(PROBE_ITERATIONS)));
    (thread_cpu_ns() - t0) as f64
}

/// The probes one thread took over an interval.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    next: Instant,
    pub count: u64,
    pub total_ns: f64,
    /// Thread CPU time the probes cost, untimed tenth included: what
    /// `cpu_us_per_sample` must not count.
    pub cost_ns: f64,
}

impl Probes {
    /// Starts with a probe due at once.
    pub fn new() -> Probes {
        Probes {
            next: Instant::now(),
            count: 0,
            total_ns: 0.0,
            cost_ns: 0.0,
        }
    }

    /// Probe if one is due at `now`.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.force();
            self.next = now + PROBE_EVERY;
        }
    }

    /// Probe now.
    pub fn force(&mut self) {
        let t0 = thread_cpu_ns();
        self.total_ns += probe_ns();
        self.count += 1;
        self.cost_ns += (thread_cpu_ns() - t0) as f64;
    }

    pub fn merge(&mut self, other: &Probes) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.cost_ns += other.cost_ns;
    }

    /// Speed factor of the interval: above 1 when the machine was
    /// slower than nominal. 1 when nothing was probed.
    pub fn factor(&self) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        self.total_ns / self.count as f64 / NOMINAL_PROBE_NS
    }
}

/// A time measured while the machine ran at `factor`, as it would read
/// at nominal speed.
pub fn normalise_time(value: f64, factor: f64) -> f64 {
    value / factor
}

/// A rate measured while the machine ran at `factor`, as it would read
/// at nominal speed.
pub fn normalise_rate(value: f64, factor: f64) -> f64 {
    value * factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_mean_probe_over_nominal() {
        let mut p = Probes::new();
        assert_eq!(p.factor(), 1.0);
        p.count = 4;
        p.total_ns = 4.0 * NOMINAL_PROBE_NS * 1.3;
        let f = p.factor();
        assert!((f - 1.3).abs() < 1e-12);
        // A 130 µs latency on a 30 %-slow machine is 100 µs at nominal,
        // and 10 k samples/s there are 13 k at nominal.
        assert!((normalise_time(130.0, f) - 100.0).abs() < 1e-9);
        assert!((normalise_rate(10_000.0, f) - 13_000.0).abs() < 1e-6);

        let mut q = Probes::new();
        q.count = 4;
        q.total_ns = 4.0 * NOMINAL_PROBE_NS * 0.7;
        p.merge(&q);
        assert!((p.factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_are_taken_when_due_and_cost_cpu_time() {
        let mut p = Probes::new();
        let now = Instant::now();
        p.tick(now);
        p.tick(now);
        assert_eq!(p.count, 1, "the second tick is not due yet");
        p.tick(now + PROBE_EVERY);
        assert_eq!(p.count, 2);
        assert!(p.total_ns > 0.0);
        assert!(p.cost_ns > p.total_ns, "the untimed tenth costs too");
    }

    #[test]
    fn kernel_scales_with_iteration_count() {
        // `black_box` is only a hint: confirm the loop is not folded.
        let time = |n| {
            let t0 = thread_cpu_ns();
            std::hint::black_box(softplus_sum(std::hint::black_box(n)));
            (thread_cpu_ns() - t0) as f64
        };
        let (short, long) = (time(100_000), time(1_000_000));
        assert!(long > short * 4.0, "{long} ns vs {short} ns");
    }
}
