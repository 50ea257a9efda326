//! Simulated performance-monitoring unit (PMU).
//!
//! PipeTune's profiling phase (§5.3) reads 58 hardware events through Linux
//! `perf`, at one sample per second, averaged per epoch. Real counters are
//! unavailable here, so this crate simulates the whole pipeline:
//!
//! * the [`EVENT_NAMES`] list reproduces the 58 events of Fig. 2;
//! * event *rates* are derived from a numeric [`WorkloadSignature`]
//!   (flops, memory intensity, branchiness, working-set size), so different
//!   models/datasets produce genuinely different, repeatable profiles — the
//!   property the ground-truth clustering depends on;
//! * Intel-style counter **multiplexing** is modelled: 3 fixed + 2 generic
//!   counters time-share the remaining events, and missed windows are scaled
//!   by `final = raw × time_enabled / time_running` exactly as the paper
//!   describes, including the estimation error that scaling introduces.
//!
//! # Example
//!
//! ```
//! use pipetune_perfmon::{Profiler, WorkloadSignature};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let profiler = Profiler::default();
//! let sig = WorkloadSignature {
//!     flops_per_epoch: 1e10,
//!     working_set_bytes: 2e8,
//!     memory_intensity: 0.5,
//!     branch_ratio: 0.1,
//! };
//! let mut rng = StdRng::seed_from_u64(0);
//! let profile = profiler.profile_epoch(&sig, 8, 60.0, &mut rng);
//! assert_eq!(profile.counts().len(), pipetune_perfmon::NUM_EVENTS);
//! ```

#![warn(missing_docs)]

mod error;
mod events;
mod filter;
pub mod observe;
mod profiler;
mod sampling;

pub use error::PerfmonError;
pub use events::{event_index, EVENT_NAMES, NUM_EVENTS};
pub use filter::decorrelated_events;
pub use profiler::{EpochProfile, Profiler, WorkloadSignature};
pub use sampling::{SampleTrace, SampleWindow};
