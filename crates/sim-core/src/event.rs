//! Deterministic pending-event queue.
//!
//! A binary min-heap keyed by `(time, priority, sequence)`. The sequence
//! number is assigned at push time, so two events scheduled for the same
//! instant with the same priority pop in FIFO order regardless of heap
//! internals — this is what makes whole-simulation runs bit-reproducible.
//!
//! A queue may also start with sequence numbers `0..n` reserved (see
//! [`EventQueue::with_reserved`]). Their owner pushes each one later with
//! [`EventQueue::push_reserved`], which lets a caller stream `n` known
//! events into the heap one at a time and still pop them in exactly the
//! order they would have taken had all `n` been pushed up front.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Priority class for simultaneous events; *lower* values pop first.
///
/// The reproduction uses this to order, e.g., job arrivals before the
/// scheduler quantum that should observe them.
pub type EventPriority = u32;

/// An entry in the [`EventQueue`].
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break class for simultaneous events (lower fires first).
    pub priority: EventPriority,
    /// Push-order sequence number (FIFO tie-break of last resort).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> EventEntry<E> {
    fn cmp_key(&self) -> (u64, EventPriority, u64) {
        // `total_cmp`-compatible ordered bits of a non-negative finite f64:
        // for non-negative floats, the IEEE-754 bit pattern is monotone.
        debug_assert!(self.time.as_secs() >= 0.0);
        (self.time.as_secs().to_bits(), self.priority, self.seq)
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-heap behaviour.
        other.cmp_key().cmp(&self.cmp_key())
    }
}
impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic pending-event set for discrete-event simulation.
///
/// ```
/// use ge_simcore::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), 0, "later");
/// q.push(SimTime::from_secs(1.0), 0, "sooner");
/// q.push(SimTime::from_secs(1.0), 0, "sooner-second");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner-second");
/// assert_eq!(q.pop().unwrap().event, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Creates an empty queue whose sequence numbers `0..n` are reserved
    /// for [`EventQueue::push_reserved`]; [`EventQueue::push`] assigns
    /// from `n` on.
    pub fn with_reserved(n: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: n,
        }
    }

    /// Schedules `event` at `time` with the given tie-break `priority`.
    ///
    /// # Panics
    /// Panics if `time` is negative (events before the epoch are invalid).
    pub fn push(&mut self, time: SimTime, priority: EventPriority, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, priority, seq, event);
    }

    /// Schedules `event` under a sequence number reserved at construction
    /// (or handed out earlier), instead of the next one. The caller keeps
    /// each reserved number to one pending event.
    ///
    /// # Panics
    /// Panics if `time` is negative or `seq` was never reserved or
    /// assigned (it must be below [`EventQueue::pushed_count`]).
    pub fn push_reserved(&mut self, time: SimTime, priority: EventPriority, seq: u64, event: E) {
        assert!(seq < self.next_seq, "sequence number {seq} is not reserved");
        self.insert(time, priority, seq, event);
    }

    fn insert(&mut self, time: SimTime, priority: EventPriority, seq: u64, event: E) {
        assert!(
            time.as_secs() >= 0.0,
            "cannot schedule event before the epoch"
        );
        self.heap.push(EventEntry {
            time,
            priority,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        self.heap.pop()
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The next sequence number [`EventQueue::push`] assigns: the events
    /// ever pushed, plus any numbers reserved at construction.
    pub fn pushed_count(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot of every pending entry, sorted by firing order. Together
    /// with [`EventQueue::pushed_count`] this captures the queue exactly;
    /// see [`EventQueue::restore`].
    pub fn snapshot_entries(&self) -> Vec<EventEntry<E>>
    where
        E: Clone,
    {
        let mut entries: Vec<EventEntry<E>> = self.heap.iter().cloned().collect();
        entries.sort_by_key(|e| e.cmp_key());
        entries
    }

    /// Rebuilds a queue from a snapshot, preserving every entry's original
    /// sequence number and the next sequence to assign. Bit-exact inverse
    /// of [`EventQueue::snapshot_entries`]: pop order and all future seq
    /// assignments are identical to the snapshotted queue's.
    pub fn restore(entries: Vec<EventEntry<E>>, next_seq: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::from(entries),
            next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 0, 3u32);
        q.push(t(1.0), 0, 1u32);
        q.push(t(2.0), 0, 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_respect_priority_then_fifo() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 5, "low-prio-first-pushed");
        q.push(t(1.0), 1, "high-prio-a");
        q.push(t(1.0), 1, "high-prio-b");
        assert_eq!(q.pop().unwrap().event, "high-prio-a");
        assert_eq!(q.pop().unwrap().event, "high-prio-b");
        assert_eq!(q.pop().unwrap().event, "low-prio-first-pushed");
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(t(4.0), 0, ());
        q.push(t(2.0), 0, ());
        assert!(q.peek_time().unwrap().approx_eq(t(2.0)));
        q.pop();
        assert!(q.peek_time().unwrap().approx_eq(t(4.0)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(i as f64), 0, i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.pushed_count(), 10);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushed_count(), 10, "sequence numbering survives clear");
    }

    #[test]
    #[should_panic]
    fn pre_epoch_event_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(-1.0), 0, ());
    }

    #[test]
    fn reserved_pushes_pop_as_if_pushed_up_front() {
        // Three arrivals (seqs 0..3) streamed one at a time against a
        // tick pushed first: the pop order equals pushing all up front.
        let times = [1.0, 2.0, 2.0];
        let mut upfront = EventQueue::new();
        for (i, &s) in times.iter().enumerate() {
            upfront.push(t(s), 1, i);
        }
        upfront.push(t(2.0), 1, 9);
        upfront.push(t(2.0), 0, 8);
        let want: Vec<usize> = std::iter::from_fn(|| upfront.pop().map(|e| e.event)).collect();

        let mut q = EventQueue::with_reserved(3);
        q.push(t(2.0), 1, 9);
        q.push(t(2.0), 0, 8);
        q.push_reserved(t(times[0]), 1, 0, 0);
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            if e.event < 2 {
                let next = e.event + 1;
                q.push_reserved(t(times[next]), 1, next as u64, next);
            }
            got.push(e.event);
        }
        assert_eq!(got, want);
        assert_eq!(q.pushed_count(), 5);
    }

    #[test]
    #[should_panic(expected = "not reserved")]
    fn unreserved_sequence_number_panics() {
        let mut q = EventQueue::with_reserved(2);
        q.push_reserved(t(1.0), 0, 2, ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(5.0), 0, 5);
        q.push(t(1.0), 0, 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.push(t(3.0), 0, 3);
        q.push(t(2.0), 0, 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 5);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::rng::RngStream;
    use crate::time::SimTime;

    #[test]
    fn pops_are_sorted_by_time_then_priority() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "event/sorted");
            let n = 1 + rng.next_below(199) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                let t = rng.uniform_range(0.0, 1000.0);
                let prio = rng.next_below(4) as u32;
                q.push(SimTime::from_secs(t), prio, i);
            }
            let mut last: Option<(u64, u32, u64)> = None;
            while let Some(e) = q.pop() {
                let key = (e.time.as_secs().to_bits(), e.priority, e.seq);
                if let Some(prev) = last {
                    assert!(prev <= key, "out of order: {prev:?} then {key:?}");
                }
                last = Some(key);
            }
        }
    }

    #[test]
    fn same_time_same_priority_is_fifo() {
        for seed in 0..32u64 {
            let mut rng = RngStream::from_root(seed, "event/fifo");
            let n = 1 + rng.next_below(99) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_secs(1.0), 0, i);
            }
            let mut expected = 0;
            while let Some(e) = q.pop() {
                assert_eq!(e.event, expected);
                expected += 1;
            }
        }
    }
}
