//! The discrete-event simulation engine.
//!
//! A simulation is a [`Model`] — a state machine that reacts to typed
//! events — driven by an [`Engine`] that owns the virtual clock and the
//! event calendar. Handlers schedule follow-up events through the
//! [`Scheduler`] handle; scheduling into the past is a logic error and
//! panics, which catches causality bugs at their source.
//!
//! ```
//! use sim_core::{Engine, Model, Scheduler, SimDuration};
//!
//! /// Counts ticks of a 1 GHz clock.
//! struct Ticker { ticks: u64, limit: u64 }
//!
//! #[derive(Debug)]
//! struct Tick;
//!
//! impl Model for Ticker {
//!     type Event = Tick;
//!     fn handle(&mut self, _ev: Tick, sched: &mut Scheduler<Tick>) {
//!         self.ticks += 1;
//!         if self.ticks < self.limit {
//!             sched.schedule_in(SimDuration::from_ns(1), Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0, limit: 5 });
//! engine.scheduler().schedule_in(SimDuration::ZERO, Tick);
//! engine.run_to_completion();
//! assert_eq!(engine.scheduler().now().as_ps(), 4_000);
//! assert_eq!(engine.into_model().ticks, 5);
//! ```

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A simulation model: reacts to events, schedules more events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// React to `event` firing at `sched.now()`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle through which a [`Model`] reads the clock and schedules events.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire after `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time — that would violate
    /// causality and silently corrupt every statistic downstream.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {}",
            self.now
        );
        self.queue.push(at, event);
    }
}

/// Drives a [`Model`] through virtual time.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
}

impl<M: Model> Engine<M> {
    /// Create an engine at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Consume the engine, returning the model (for inspecting results).
    pub fn into_model(self) -> M {
        self.model
    }

    /// A scheduler handle for seeding initial events from outside the model.
    pub fn scheduler(&mut self) -> Scheduler<'_, M::Event> {
        Scheduler {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Run until the calendar drains. Returns the number of events
    /// processed.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut processed = 0;
        while let Some((time, event)) = self.queue.pop() {
            debug_assert!(time >= self.now, "calendar returned an out-of-order event");
            self.now = time;
            processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            self.model.handle(event, &mut sched);
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records `(time, tag)` pairs and can fan out events.
    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    enum Ev {
        Mark(u32),
        FanOut { count: u32, gap_ps: u64 },
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Mark(tag) => self.log.push((sched.now().as_ps(), tag)),
                Ev::FanOut { count, gap_ps } => {
                    for i in 0..count {
                        sched.schedule_in(
                            SimDuration::from_ps(gap_ps * (i as u64 + 1)),
                            Ev::Mark(i),
                        );
                    }
                }
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { log: Vec::new() })
    }

    #[test]
    fn processes_in_time_order() {
        let mut e = engine();
        e.scheduler().schedule_at(SimTime::from_ps(50), Ev::Mark(2));
        e.scheduler().schedule_at(SimTime::from_ps(10), Ev::Mark(1));
        assert_eq!(e.run_to_completion(), 2);
        assert_eq!(e.scheduler().now().as_ps(), 50);
        assert_eq!(e.into_model().log, vec![(10, 1), (50, 2)]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = engine();
        e.scheduler().schedule_in(
            SimDuration::from_ps(5),
            Ev::FanOut {
                count: 3,
                gap_ps: 10,
            },
        );
        e.run_to_completion();
        assert_eq!(e.into_model().log, vec![(15, 0), (25, 1), (35, 2)]);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_past_panics() {
        let mut e = engine();
        e.scheduler()
            .schedule_at(SimTime::from_ps(100), Ev::Mark(0));
        e.run_to_completion();
        // now == 100; scheduling at 50 must panic.
        e.scheduler().schedule_at(SimTime::from_ps(50), Ev::Mark(1));
    }

    #[test]
    fn empty_engine_is_a_noop() {
        let mut e = engine();
        assert_eq!(e.run_to_completion(), 0);
        assert_eq!(e.scheduler().now(), SimTime::ZERO);
    }
}
