//! Sliding windows backed by ring buffers — the state every detector
//! hangs its evidence on.
//!
//! Two flavours, both on *simulated* time (never wall clock, so window
//! contents are a pure function of the observation stream):
//!
//! * [`RingWindow`] — the last `capacity` samples, count-based. Backed by
//!   a fixed-size ring: pushing the `capacity + 1`-th sample overwrites
//!   the oldest in place, no allocation after construction.
//! * [`TimeWindow`] — the samples of the last `horizon_secs` simulated
//!   seconds, pruned lazily on push/query. Backed by a `VecDeque` (a
//!   growable ring buffer); timestamps must arrive non-decreasing *per
//!   window*, which holds because each detector keys one window per
//!   monotone clock domain.

use std::collections::VecDeque;

/// The last `capacity` samples, in a fixed-size ring buffer.
#[derive(Debug, Clone)]
pub(crate) struct RingWindow {
    buf: Vec<f64>,
    /// Next write position.
    head: usize,
    /// Number of live samples (`<= buf.capacity()`).
    len: usize,
    capacity: usize,
}

impl RingWindow {
    /// An empty window holding at most `capacity` samples (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingWindow { buf: vec![0.0; capacity], head: 0, len: 0, capacity }
    }

    /// Pushes a sample, evicting the oldest once full.
    pub(crate) fn push(&mut self, value: f64) {
        self.buf[self.head] = value;
        self.head = (self.head + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Live sample count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every sample (detector cool-down after a firing).
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Mean of the live samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.buf[..self.len].iter().sum::<f64>() / self.len as f64
    }
}

/// The samples of the last `horizon_secs` simulated seconds.
#[derive(Debug, Clone)]
pub(crate) struct TimeWindow {
    horizon_secs: f64,
    /// Sample timestamps, oldest first.
    buf: VecDeque<f64>,
}

impl TimeWindow {
    /// An empty window spanning `horizon_secs` of simulated time.
    pub(crate) fn new(horizon_secs: f64) -> Self {
        TimeWindow { horizon_secs: horizon_secs.max(0.0), buf: VecDeque::new() }
    }

    /// Pushes a sample at `at_secs` and prunes everything older than the
    /// horizon behind it. Timestamps must arrive non-decreasing.
    pub(crate) fn push(&mut self, at_secs: f64) {
        self.buf.push_back(at_secs);
        self.prune(at_secs);
    }

    /// Drops samples strictly older than `now_secs - horizon` (the window
    /// is the half-open interval `(now - horizon, now]`).
    fn prune(&mut self, now_secs: f64) {
        let cutoff = now_secs - self.horizon_secs;
        while let Some(&at) = self.buf.front() {
            if at <= cutoff {
                self.buf.pop_front();
            } else {
                break;
            }
        }
    }

    /// Live sample count.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Drops every sample (detector cool-down after a firing).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Count of `samples` falling in the half-open window `(now - horizon, now]`
/// — for streams a detector keeps as plain sorted timestamps rather than a
/// [`TimeWindow`] (e.g. the SLO detector's arrival times, which must be
/// queried at *past* instants, not just the newest one).
pub(crate) fn count_in_window(samples: &[f64], now_secs: f64, horizon_secs: f64) -> usize {
    let cutoff = now_secs - horizon_secs;
    samples.iter().filter(|&&at| at > cutoff && at <= now_secs).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_window_evicts_oldest_and_tracks_stats() {
        let mut w = RingWindow::new(3);
        assert_eq!(w.len(), 0);
        assert_eq!(w.mean(), 0.0);
        for v in [1.0, 2.0, 3.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.mean(), 2.0);
        w.push(10.0); // evicts 1.0
        assert_eq!(w.len(), 3);
        assert_eq!(w.mean(), 5.0);
        w.clear();
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn time_window_prunes_by_horizon() {
        let mut w = TimeWindow::new(10.0);
        w.push(0.0);
        w.push(5.0);
        w.push(12.0);
        // 0.0 is outside (12 - 10, 12]; 5.0 and 12.0 remain.
        assert_eq!(w.len(), 2);
        w.push(30.0);
        assert_eq!(w.len(), 1);
        w.clear();
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn count_in_window_is_half_open() {
        let samples = [0.0, 5.0, 10.0, 15.0];
        // (5, 15]: excludes 5.0 exactly, includes 15.0 exactly.
        assert_eq!(count_in_window(&samples, 15.0, 10.0), 2);
        assert_eq!(count_in_window(&samples, 100.0, 10.0), 0);
        assert_eq!(count_in_window(&samples, 15.0, f64::INFINITY), 4);
    }
}
