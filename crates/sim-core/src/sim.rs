//! A minimal generic discrete-event simulation driver.
//!
//! [`Simulator`] owns the clock and the pending-event set and hands each
//! event, in deterministic order, to a handler. The handler receives a
//! [`SimContext`] through which it can read the clock and schedule further
//! events. Domain logic (cores, jobs, schedulers) lives in higher crates;
//! this type only guarantees the *mechanics*: monotone time, deterministic
//! ordering, and a clean stopping rule.

use crate::event::{EventEntry, EventPriority, EventQueue};
use crate::time::SimTime;

/// Handle passed to event handlers for interacting with the simulator.
#[derive(Debug)]
pub struct SimContext<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> SimContext<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time beyond tolerance —
    /// scheduling into the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, priority: EventPriority, event: E) {
        assert!(
            at.at_or_after(self.now),
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        // Clamp epsilon-early times to `now` so the queue never yields a
        // time that appears to move backwards.
        let at = at.max(self.now);
        self.queue.push(at, priority, event);
    }

    /// Like [`SimContext::schedule`], under sequence number `seq`
    /// reserved with [`Simulator::with_reserved`].
    ///
    /// # Panics
    /// Panics if `at` is in the past or `seq` was never reserved.
    pub fn schedule_reserved(&mut self, at: SimTime, priority: EventPriority, seq: u64, event: E) {
        assert!(
            at.at_or_after(self.now),
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue
            .push_reserved(at.max(self.now), priority, seq, event);
    }

    /// Requests that the run loop stop after the current event.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Number of pending events (not counting the one being handled).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// A generic discrete-event simulator over event payload type `E`.
///
/// ```
/// use ge_simcore::{SimTime, Simulator};
///
/// // Count ticks of a self-rescheduling clock event until the horizon.
/// let mut sim: Simulator<u32> = Simulator::new();
/// sim.schedule(SimTime::ZERO, 0, 0);
/// let mut ticks = 0;
/// sim.run_until(SimTime::from_secs(1.0), |ctx, _tick| {
///     ticks += 1;
///     let next = ctx.now() + ge_simcore::SimDuration::from_millis(100.0);
///     ctx.schedule(next, 0, 0);
/// });
/// assert_eq!(ticks, 11); // t = 0.0, 0.1, ..., 1.0 inclusive
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    handled: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at the epoch.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            handled: 0,
        }
    }

    /// Creates a simulator whose event sequence numbers `0..n` are
    /// reserved for [`Simulator::schedule_reserved`] and
    /// [`SimContext::schedule_reserved`]. An owner that knows `n` events
    /// up front can keep only the next one pending and still get the pop
    /// order of scheduling all `n` first.
    pub fn with_reserved(n: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::with_reserved(n),
            handled: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far.
    pub fn handled_count(&self) -> u64 {
        self.handled
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The firing time of the earliest pending event, if any. A
    /// [`Simulator::run_until`] to `horizon` handles an event iff this
    /// time is not `after(horizon)`.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules an event from outside the run loop (setup).
    pub fn schedule(&mut self, at: SimTime, priority: EventPriority, event: E) {
        assert!(at.at_or_after(self.now), "cannot schedule into the past");
        self.queue.push(at.max(self.now), priority, event);
    }

    /// Like [`Simulator::schedule`], under a sequence number reserved
    /// with [`Simulator::with_reserved`].
    ///
    /// # Panics
    /// Panics if `at` is in the past or `seq` was never reserved.
    pub fn schedule_reserved(&mut self, at: SimTime, priority: EventPriority, seq: u64, event: E) {
        assert!(at.at_or_after(self.now), "cannot schedule into the past");
        self.queue
            .push_reserved(at.max(self.now), priority, seq, event);
    }

    /// Sequence number the queue will assign to the next event pushed
    /// without a reserved one.
    pub fn next_seq(&self) -> u64 {
        self.queue.pushed_count()
    }

    /// Snapshot of every pending event in deterministic firing order.
    /// Together with [`Simulator::now`], [`Simulator::handled_count`], and
    /// [`Simulator::next_seq`] this captures the simulator exactly.
    pub fn snapshot_pending(&self) -> Vec<EventEntry<E>>
    where
        E: Clone,
    {
        self.queue.snapshot_entries()
    }

    /// Reconstructs a simulator from snapshot state. The restored instance
    /// delivers the exact same `(now, event)` sequence as the original —
    /// entry sequence numbers and the next sequence to assign are preserved,
    /// so FIFO tie-breaking is unchanged.
    pub fn restore(now: SimTime, handled: u64, pending: Vec<EventEntry<E>>, next_seq: u64) -> Self {
        Simulator {
            now,
            queue: EventQueue::restore(pending, next_seq),
            handled,
        }
    }

    /// Runs until the queue drains, `horizon` is passed, or the handler
    /// requests a stop. Events at exactly `horizon` are still delivered;
    /// events strictly after it remain queued. Returns the number of events
    /// handled during this call.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        let mut handled_here = 0;
        let mut stop = false;
        while !stop {
            match self.queue.peek_time() {
                None => break,
                Some(t) if t.after(horizon) => break,
                Some(_) => {}
            }
            let entry = self.queue.pop().expect("peeked entry must exist");
            debug_assert!(
                entry.time.at_or_after(self.now),
                "event queue yielded a past event"
            );
            self.now = self.now.max(entry.time);
            let mut ctx = SimContext {
                now: self.now,
                queue: &mut self.queue,
                stop_requested: &mut stop,
            };
            handler(&mut ctx, entry.event);
            self.handled += 1;
            handled_here += 1;
        }
        // Advance the clock to the horizon even if the queue drained early,
        // so post-run accounting (e.g. energy integration to the horizon)
        // sees the full interval — unless the handler stopped us early.
        if !stop && self.now.before(horizon) {
            self.now = horizon;
        }
        handled_here
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn drains_in_order() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_secs(2.0), 0, 2);
        sim.schedule(SimTime::from_secs(1.0), 0, 1);
        sim.schedule(SimTime::from_secs(3.0), 0, 3);
        let mut seen = Vec::new();
        let n = sim.run_until(SimTime::from_secs(10.0), |_, e| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(n, 3);
        assert!(sim.now().approx_eq(SimTime::from_secs(10.0)));
    }

    #[test]
    fn horizon_cuts_off_later_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_secs(1.0), 0, 1);
        sim.schedule(SimTime::from_secs(5.0), 0, 5);
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(2.0), |_, e| seen.push(e));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.pending_events(), 1);
        // Resume to get the rest.
        sim.run_until(SimTime::from_secs(10.0), |_, e| seen.push(e));
        assert_eq!(seen, vec![1, 5]);
    }

    #[test]
    fn event_at_exact_horizon_is_delivered() {
        let mut sim: Simulator<&str> = Simulator::new();
        sim.schedule(SimTime::from_secs(2.0), 0, "edge");
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(2.0), |_, e| seen.push(e));
        assert_eq!(seen, vec!["edge"]);
    }

    #[test]
    fn handler_can_reschedule() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::ZERO, 0, 0);
        let mut count = 0;
        sim.run_until(SimTime::from_secs(0.95), |ctx, _| {
            count += 1;
            let next = ctx.now() + SimDuration::from_millis(100.0);
            ctx.schedule(next, 0, 0);
        });
        assert_eq!(count, 10); // t = 0.0 .. 0.9
    }

    #[test]
    fn stop_request_halts_loop() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(i as f64), 0, i);
        }
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(100.0), |ctx, e| {
            seen.push(e);
            if e == 3 {
                ctx.request_stop();
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Clock stays at the stop point, not the horizon.
        assert!(sim.now().approx_eq(SimTime::from_secs(3.0)));
    }

    #[test]
    fn clock_is_monotone_under_simultaneous_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..5 {
            sim.schedule(SimTime::from_secs(1.0), i, i);
        }
        let mut last = SimTime::ZERO;
        sim.run_until(SimTime::from_secs(2.0), |ctx, _| {
            assert!(ctx.now().at_or_after(last));
            last = ctx.now();
        });
    }

    #[test]
    fn snapshot_restore_preserves_order_and_seq() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..6 {
            sim.schedule(SimTime::from_secs(1.0 + (i % 3) as f64), i % 2, i);
        }
        let mut straight = Vec::new();
        let mut reference = Simulator::restore(
            sim.now(),
            sim.handled_count(),
            sim.snapshot_pending(),
            sim.next_seq(),
        );

        // Run the original to a mid-horizon, snapshot, restore, finish both.
        sim.run_until(SimTime::from_secs(2.0), |ctx, e| {
            straight.push((ctx.now().as_secs().to_bits(), e));
        });
        let mut resumed = Simulator::restore(
            sim.now(),
            sim.handled_count(),
            sim.snapshot_pending(),
            sim.next_seq(),
        );
        resumed.run_until(SimTime::from_secs(10.0), |ctx, e| {
            straight.push((ctx.now().as_secs().to_bits(), e));
        });

        let mut continuous = Vec::new();
        reference.run_until(SimTime::from_secs(10.0), |ctx, e| {
            continuous.push((ctx.now().as_secs().to_bits(), e));
        });
        assert_eq!(straight, continuous);
        assert_eq!(resumed.next_seq(), reference.next_seq());
        assert_eq!(resumed.handled_count(), reference.handled_count());
    }

    #[test]
    fn handled_count_accumulates() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule(SimTime::from_secs(1.0), 0, ());
        sim.run_until(SimTime::from_secs(1.0), |_, _| {});
        sim.schedule(SimTime::from_secs(2.0), 0, ());
        sim.run_until(SimTime::from_secs(2.0), |_, _| {});
        assert_eq!(sim.handled_count(), 2);
    }
}
