//! The future-event list under the open-loop engines: a binary heap of
//! pending events keyed by `(time, seq)`, `seq` numbering schedules in
//! order, so same-instant events pop FIFO and a simulation stays a pure
//! function of its inputs. Schedule and pop are O(log n) sift steps over
//! one array, with no horizon; the engines hold at most about a thousand
//! events. Beside the heap sits one timer slot: [`TimingWheel::set_timer`]
//! keys an event exactly as [`TimingWheel::schedule`] would but keeps it
//! out of the heap, and `pop` takes whichever of the slot and the heap's
//! top has the smaller key, so a periodic event that re-arms itself from
//! each pop costs one compare instead of two sift passes.
//! [`TimingWheel::next_at`] peeks at the time of the next pop, so the
//! open-loop driver can tell how many ticks fall before the heap's top.
//! The property tests pin every pop, peek, `len` and `now`, timers
//! included, against a `BTreeMap<(time, seq), _>` reference.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event. `key` packs `(at, seq)` into one integer for a
/// branch-free compare; `Ord` reverses it, so the max-heap's top is the
/// earliest event.
#[derive(Debug)]
struct Pending<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Pending<T> {}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A binary-heap future-event list over simulated nanoseconds (the name
/// is historical), plus one timer slot. Events pop in time order, ties in
/// scheduling order, whether they were scheduled or set as the timer.
///
/// # Example
///
/// ```
/// use faultstudy_sim::time::SimTime;
/// use faultstudy_sim::wheel::TimingWheel;
///
/// let mut wheel = TimingWheel::new();
/// wheel.schedule(SimTime::from_nanos(50), "b");
/// wheel.schedule(SimTime::from_nanos(10), "a");
/// wheel.schedule(SimTime::from_nanos(50), "c"); // same tick: FIFO
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(50), "b")));
/// assert_eq!(wheel.pop(), Some((SimTime::from_nanos(50), "c")));
/// assert_eq!(wheel.pop(), None);
/// ```
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Pending events, earliest `(at, seq)` on top.
    heap: BinaryHeap<Pending<T>>,
    /// The pending timer, keyed like a heap event but kept out of the heap.
    timer: Option<Pending<T>>,
    /// Next scheduling sequence number; breaks same-instant ties FIFO.
    seq: u64,
    /// The queue's current time: the timestamp of the last popped event.
    now: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty queue at time zero.
    pub fn new() -> TimingWheel<T> {
        TimingWheel { heap: BinaryHeap::new(), timer: None, seq: 0, now: 0 }
    }

    /// Events currently scheduled, a pending timer included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.timer.is_some())
    }

    /// Whether no events are scheduled and no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timer.is_none()
    }

    /// The timestamp of the last popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Schedules `item` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`TimingWheel::now`] — a
    /// simulation never schedules into its own past.
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let key = self.next_key(at);
        self.heap.push(Pending { key, item });
    }

    /// Sets the timer: `item` pops at time `at` exactly as if it had been
    /// [scheduled](TimingWheel::schedule) then, taking the next sequence
    /// number, but it waits in the queue's one timer slot instead of the
    /// heap. The slot frees when the timer pops.
    ///
    /// # Panics
    ///
    /// Panics if a timer is already pending, or if `at` is earlier than
    /// [`TimingWheel::now`].
    pub fn set_timer(&mut self, at: SimTime, item: T) {
        assert!(self.timer.is_none(), "a timer is already pending");
        let key = self.next_key(at);
        self.timer = Some(Pending { key, item });
    }

    /// Packs `at` and the next sequence number into an event key, using
    /// the number up.
    fn next_key(&mut self, at: SimTime) -> u128 {
        let at = at.as_nanos();
        assert!(at >= self.now, "event at {at} scheduled before wheel time {}", self.now);
        let key = u128::from(at) << 64 | u128::from(self.seq);
        self.seq += 1;
        key
    }

    /// Whether the pending timer pops before the heap's top.
    fn timer_first(&self) -> bool {
        self.timer
            .as_ref()
            .is_some_and(|timer| self.heap.peek().is_none_or(|top| timer.key < top.key))
    }

    /// The timestamp of the event the next [`TimingWheel::pop`] returns,
    /// without removing it; `None` when nothing is pending.
    pub fn next_at(&self) -> Option<SimTime> {
        let next = if self.timer_first() { self.timer.as_ref() } else { self.heap.peek() }?;
        Some(SimTime::from_nanos((next.key >> 64) as u64))
    }

    /// Removes and returns the earliest event (the first scheduled among
    /// equal times), advancing [`TimingWheel::now`] to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let timer_first = self.timer_first();
        let Pending { key, item } = if timer_first { self.timer.take() } else { self.heap.pop() }?;
        let at = (key >> 64) as u64;
        self.now = at;
        Some((SimTime::from_nanos(at), item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(wheel: &mut TimingWheel<T>) -> Vec<(u64, T)> {
        std::iter::from_fn(|| wheel.pop().map(|(t, x)| (t.as_nanos(), x))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut wheel = TimingWheel::new();
        for &t in &[500u64, 3, 70_000, 3, 0, 1 << 20, 64, 65] {
            wheel.schedule(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = drain(&mut wheel).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![0, 3, 3, 64, 65, 500, 70_000, 1 << 20]);
    }

    #[test]
    fn same_tick_ties_are_fifo() {
        let mut wheel = TimingWheel::new();
        for label in 0..10u32 {
            wheel.schedule(SimTime::from_nanos(1234), label);
        }
        let labels: Vec<u32> = drain(&mut wheel).into_iter().map(|(_, l)| l).collect();
        assert_eq!(labels, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_return_in_order() {
        let mut wheel = TimingWheel::new();
        let far = 1u64 << 40; // ~18 simulated minutes out
        wheel.schedule(SimTime::from_nanos(far + 7), "late");
        wheel.schedule(SimTime::from_nanos(far), "later-first");
        wheel.schedule(SimTime::from_nanos(9), "soon");
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(9), "soon")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(far), "later-first")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(far + 7), "late")));
        assert!(wheel.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_track_time() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_nanos(10), "a");
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(wheel.now(), SimTime::from_nanos(10));
        // Scheduling at the current instant is allowed and pops next.
        wheel.schedule(SimTime::from_nanos(10), "b");
        wheel.schedule(SimTime::from_nanos(11), "c");
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "b")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(11), "c")));
    }

    #[test]
    fn a_timer_ties_with_heap_events_in_scheduling_order() {
        let at = SimTime::from_nanos(50);
        let mut wheel = TimingWheel::new();
        wheel.set_timer(at, "timer");
        wheel.schedule(at, "event");
        assert_eq!(wheel.len(), 2);
        assert_eq!(drain(&mut wheel), vec![(50, "timer"), (50, "event")]);

        let mut wheel = TimingWheel::new();
        wheel.schedule(at, "event");
        wheel.set_timer(at, "timer");
        assert_eq!(wheel.len(), 2);
        assert_eq!(drain(&mut wheel), vec![(50, "event"), (50, "timer")]);
        assert!(wheel.is_empty());
    }

    #[test]
    #[should_panic(expected = "a timer is already pending")]
    fn setting_a_second_timer_panics() {
        let mut wheel = TimingWheel::new();
        wheel.set_timer(SimTime::from_nanos(10), ());
        wheel.set_timer(SimTime::from_nanos(20), ());
    }

    #[test]
    #[should_panic(expected = "scheduled before wheel time")]
    fn scheduling_into_the_past_panics() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_nanos(100), ());
        wheel.pop();
        wheel.schedule(SimTime::from_nanos(99), ());
    }
}
