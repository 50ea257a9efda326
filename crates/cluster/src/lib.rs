//! Deterministic discrete-event simulator of a CPU deep-learning cluster.
//!
//! The paper evaluates on 4 Intel E3 nodes (8 cores, 64 GiB each) plus a
//! single-node E5 testbed. This crate simulates that infrastructure so the
//! reproduction can measure *time* and *placement* effects without the
//! hardware:
//!
//! * [`SimTime`] / [`EventQueue`] — a microsecond-resolution event engine.
//! * [`SystemConfig`] — the system parameters PipeTune tunes (cores, memory).
//! * [`CostModel`] — epoch duration as a function of work and system
//!   configuration. It encodes the mechanism the paper describes in §3.2:
//!   synchronous mini-batch SGD pays a per-iteration synchronisation cost
//!   that grows with core count, so *small* batches slow down on more cores
//!   while large batches speed up (Fig. 3b's crossover).
//! * [`ClusterSpec`] — the node inventory. Oversubscription reaches the
//!   [`CostModel`] as a contention factor (Fig. 5, §7.4).
//! * [`PoissonArrivals`] — exponential interarrival job traces for the
//!   multi-tenancy experiments (§7.4).
//! * [`SlotPool`] — leased-slot accounting a multi-job tuning service
//!   partitions the cluster's parallel trial slots with (never
//!   oversubscribing; see `docs/multitenancy.md`).
//! * [`FaultPlan`] / [`FaultReport`] / [`RetryPolicy`] — seeded,
//!   deterministic fault schedules (node crashes, stragglers, counter-read
//!   failures, preemptions) and the recovery accounting vocabulary.
//! * [`ServiceFaultPlan`] / [`ServiceFaultReport`] — the service-level
//!   siblings: node churn against the shared [`SlotPool`] and whole-job
//!   crashes with checkpointed resubmission (see `docs/faults.md`
//!   §"Service-level faults").
//!
//! Everything is deterministic under a seed; times are simulated, never wall
//! clock.

#![warn(missing_docs)]

mod arrivals;
mod cost;
mod faults;
pub mod observe;
mod sim;
mod slots;
mod system;
mod topology;

pub use arrivals::PoissonArrivals;
pub use cost::{CostModel, WorkUnits};
pub use faults::{
    ChurnKind, FaultKind, FaultPlan, FaultReport, RetryPolicy, ServiceFaultPlan, ServiceFaultReport,
};
pub use sim::{EventQueue, SimTime};
pub use slots::{SlotPool, SlotPoolError};
pub use system::{SystemConfig, SystemSpace};
pub use topology::{ClusterSpec, Node};
