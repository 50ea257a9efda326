//! Simulated time and a deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A point in simulated time, stored as integer microseconds so it is `Ord`
/// and hashable (no float-comparison pitfalls in the event queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from (non-negative, finite) seconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime(0);
        }
        SimTime((secs * 1e6).round() as u64)
    }

    /// Seconds since time zero.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of a duration expressed as another `SimTime`.
    pub(crate) fn plus(&self, d: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

/// A deterministic discrete-event queue.
///
/// Events fire in time order; ties break by insertion order (FIFO), which
/// keeps multi-job simulations reproducible.
///
/// # Example
///
/// ```
/// use pipetune_cluster::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(20.0), "late");
/// q.push(SimTime::from_secs_f64(10.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventSlot<T>)>>,
    seq: u64,
}

/// Wrapper that gives the payload a total order without requiring `T: Ord`
/// (the sequence number always breaks ties before the payload is compared).
#[derive(Debug, Clone)]
struct EventSlot<T>(T);

impl<T> PartialEq for EventSlot<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for EventSlot<T> {}
impl<T> PartialOrd for EventSlot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for EventSlot<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.heap.push(Reverse((time, self.seq, EventSlot(payload))));
        self.seq += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse((t, _, EventSlot(p)))| (t, p))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_round_trips_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime(1_500_000));
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn simtime_clamps_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 3);
        q.push(SimTime(10), 1);
        q.push(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime(5);
        q.push(t, "a");
        q.push(t, "b");
        q.push(t, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime(10).plus(SimTime(30)), SimTime(40));
        assert_eq!(SimTime(u64::MAX).plus(SimTime(1)), SimTime(u64::MAX));
    }
}
