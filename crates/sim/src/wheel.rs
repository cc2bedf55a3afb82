//! The future-event list under the open-loop engines: a binary heap of
//! pending events keyed by `(time, seq)`, `seq` numbering schedules in
//! order, so same-instant events pop FIFO and a simulation stays a pure
//! function of its inputs. Schedule and pop are O(log n) sift steps over
//! one array, with no horizon; the engines hold at most about a thousand
//! events. The property tests pin every pop, `len` and `now` against a
//! `BTreeMap<(time, seq), _>` reference.

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
/// is historical). Events pop in time order, ties in scheduling order.
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
        TimingWheel { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let at = at.as_nanos();
        assert!(at >= self.now, "event at {at} scheduled before wheel time {}", self.now);
        self.heap.push(Pending { key: u128::from(at) << 64 | u128::from(self.seq), item });
        self.seq += 1;
    }

    /// Removes and returns the earliest event (the first scheduled among
    /// equal times), advancing [`TimingWheel::now`] to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Pending { key, item } = self.heap.pop()?;
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
    #[should_panic(expected = "scheduled before wheel time")]
    fn scheduling_into_the_past_panics() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_nanos(100), ());
        wheel.pop();
        wheel.schedule(SimTime::from_nanos(99), ());
    }
}
