//! Slot-pool accounting for multi-job tuning services.
//!
//! A tuning service partitions the cluster's parallel trial slots across
//! concurrently admitted jobs. [`SlotPool`] is the bookkeeping side of that
//! partitioning: leases are granted against a fixed capacity and can never
//! oversubscribe it, so a scheduler bug that hands out more slots than the
//! cluster has surfaces as a typed error instead of silently corrupted
//! wall-clock accounting. The property suite (`tests/service_props.rs`)
//! asserts the no-oversubscription invariant at every event time of a
//! service run.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from [`SlotPool`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPoolError {
    /// A lease asked for more slots than are currently free.
    Exhausted {
        /// Slots requested.
        requested: usize,
        /// Slots still free.
        available: usize,
    },
    /// A lease asked for zero slots (a job always occupies at least one).
    EmptyLease,
    /// A release named a lease id that is not outstanding.
    UnknownLease {
        /// The dangling lease id.
        lease: u64,
    },
    /// A resize asked for less capacity than is currently leased out;
    /// callers must shrink or release leases first.
    ShrinkBelowInUse {
        /// Capacity requested.
        requested: usize,
        /// Slots currently leased out.
        in_use: usize,
    },
}

impl fmt::Display for SlotPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotPoolError::Exhausted { requested, available } => {
                write!(f, "requested {requested} slot(s) but only {available} free")
            }
            SlotPoolError::EmptyLease => write!(f, "a lease must cover at least one slot"),
            SlotPoolError::UnknownLease { lease } => {
                write!(f, "lease {lease} is not outstanding")
            }
            SlotPoolError::ShrinkBelowInUse { requested, in_use } => {
                write!(f, "cannot shrink capacity to {requested} with {in_use} slot(s) leased")
            }
        }
    }
}

impl Error for SlotPoolError {}

/// A fixed pool of parallel trial slots with leased-out accounting.
///
/// # Example
///
/// ```
/// use pipetune_cluster::SlotPool;
///
/// let mut pool = SlotPool::new(4);
/// let a = pool.lease(3).unwrap();
/// assert_eq!(pool.in_use(), 3);
/// assert!(pool.lease(2).is_err(), "no oversubscription");
/// assert_eq!(pool.release(a), Ok(3));
/// assert_eq!(pool.in_use(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotPool {
    capacity: usize,
    leases: BTreeMap<u64, usize>,
    next_lease: u64,
    in_use: usize,
}

impl SlotPool {
    /// A pool with `capacity` slots, all free.
    pub fn new(capacity: usize) -> Self {
        SlotPool { capacity, leases: BTreeMap::new(), next_lease: 0, in_use: 0 }
    }

    /// Total slots, leased or not.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently leased out.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Slots currently free.
    fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Leases `slots` slots, returning the lease id to release later.
    ///
    /// # Errors
    ///
    /// [`SlotPoolError::EmptyLease`] for zero slots,
    /// [`SlotPoolError::Exhausted`] when fewer than `slots` are free —
    /// a pool never oversubscribes.
    pub fn lease(&mut self, slots: usize) -> Result<u64, SlotPoolError> {
        if slots == 0 {
            return Err(SlotPoolError::EmptyLease);
        }
        let available = self.available();
        if slots > available {
            return Err(SlotPoolError::Exhausted { requested: slots, available });
        }
        let lease = self.next_lease;
        self.next_lease += 1;
        self.leases.insert(lease, slots);
        self.in_use += slots;
        Ok(lease)
    }

    /// Releases a lease, returning how many slots it covered.
    ///
    /// # Errors
    ///
    /// [`SlotPoolError::UnknownLease`] when `lease` is not outstanding.
    pub fn release(&mut self, lease: u64) -> Result<usize, SlotPoolError> {
        match self.leases.remove(&lease) {
            Some(slots) => {
                self.in_use -= slots;
                Ok(slots)
            }
            None => Err(SlotPoolError::UnknownLease { lease }),
        }
    }

    /// Resizes the pool to `capacity` total slots — the elastic-membership
    /// hook for node churn: a leaving node shrinks the pool, a rejoining
    /// one grows it. Outstanding leases are untouched.
    ///
    /// # Errors
    ///
    /// [`SlotPoolError::ShrinkBelowInUse`] when `capacity` is below the
    /// currently leased total — a pool never oversubscribes, so callers
    /// must release (or shrink) leases *before* taking capacity away.
    pub fn resize(&mut self, capacity: usize) -> Result<(), SlotPoolError> {
        if capacity < self.in_use {
            return Err(SlotPoolError::ShrinkBelowInUse {
                requested: capacity,
                in_use: self.in_use,
            });
        }
        self.capacity = capacity;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_account_and_release() {
        let mut pool = SlotPool::new(4);
        let a = pool.lease(1).unwrap();
        let b = pool.lease(3).unwrap();
        assert_eq!(pool.in_use(), 4);
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.leases.len(), 2);
        assert_eq!(pool.release(a), Ok(1));
        assert_eq!(pool.release(b), Ok(3));
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn oversubscription_and_bad_releases_are_typed_errors() {
        let mut pool = SlotPool::new(2);
        assert_eq!(pool.lease(0), Err(SlotPoolError::EmptyLease));
        let a = pool.lease(2).unwrap();
        assert_eq!(pool.lease(1), Err(SlotPoolError::Exhausted { requested: 1, available: 0 }));
        assert_eq!(pool.release(a + 1), Err(SlotPoolError::UnknownLease { lease: a + 1 }));
        assert_eq!(pool.release(a), Ok(2));
        assert_eq!(pool.release(a), Err(SlotPoolError::UnknownLease { lease: a }));
    }

    #[test]
    fn lease_ids_are_never_reused() {
        let mut pool = SlotPool::new(1);
        let a = pool.lease(1).unwrap();
        pool.release(a).unwrap();
        let b = pool.lease(1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn resize_grows_freely_but_never_strands_leases() {
        let mut pool = SlotPool::new(4);
        let a = pool.lease(3).unwrap();
        // Growing is always fine.
        pool.resize(6).unwrap();
        assert_eq!(pool.capacity(), 6);
        assert_eq!(pool.available(), 3);
        // Shrinking below the leased total is a typed error...
        assert_eq!(
            pool.resize(2),
            Err(SlotPoolError::ShrinkBelowInUse { requested: 2, in_use: 3 })
        );
        assert_eq!(pool.capacity(), 6, "failed resize leaves the pool untouched");
        // ...but shrinking to exactly the leased total works.
        pool.resize(3).unwrap();
        assert_eq!(pool.available(), 0);
        pool.release(a).unwrap();
        pool.resize(1).unwrap();
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn errors_display_their_context() {
        let text = SlotPoolError::Exhausted { requested: 3, available: 1 }.to_string();
        assert!(text.contains('3') && text.contains('1'), "{text}");
        assert!(SlotPoolError::UnknownLease { lease: 9 }.to_string().contains('9'));
        let shrink = SlotPoolError::ShrinkBelowInUse { requested: 2, in_use: 5 }.to_string();
        assert!(shrink.contains('2') && shrink.contains('5'), "{shrink}");
    }
}
