//! Scheduling policies and admission control for the tuning service.

/// How the service divides the shared cluster among concurrently admitted
/// jobs. All three policies are work-conserving: whenever at least one
/// admitted job is unfinished, the full configured capacity is busy, so
/// the last completion time of a job stream is policy-independent (pinned
/// by the property suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First-in-first-out over `servers` dedicated partitions: jobs start
    /// in arrival order as partitions free up and then run dedicated. With
    /// one server this is the paper's §5.1 regime and reproduces
    /// `pipetune::simulate_fifo` exactly.
    Fifo,
    /// Egalitarian processor sharing: every admitted job is always
    /// running, each at rate `servers / active` (capped at 1). With one
    /// server this is Fig. 5's co-location regime and reproduces
    /// `pipetune::simulate_processor_sharing` exactly.
    ProcessorSharing,
    /// Preemptive shortest-remaining-service: the `servers` jobs with the
    /// least service left run at rate 1; a shorter newcomer preempts.
    /// Minimises mean response time among the three.
    ShortestRemainingService,
}

impl SchedulingPolicy {
    /// All policies, in a stable order (benchmarks iterate this).
    pub const ALL: [SchedulingPolicy; 3] = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::ProcessorSharing,
        SchedulingPolicy::ShortestRemainingService,
    ];

    /// Stable lower-snake name used in metric keys and span attributes.
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::ProcessorSharing => "processor_sharing",
            SchedulingPolicy::ShortestRemainingService => "shortest_remaining",
        }
    }
}

/// Admission control applied to each arrival before it enters the system.
///
/// The default admits everything; a bounded controller rejects arrivals
/// that would push the number of unfinished jobs (queued + in service)
/// past the bound. Rejected jobs never run — their records carry
/// `admitted = false` and `NaN` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionControl {
    /// Maximum unfinished jobs in the system; `None` admits everything.
    pub max_in_system: Option<usize>,
}

impl AdmissionControl {
    /// Admit every arrival (the default).
    pub(crate) fn unbounded() -> Self {
        AdmissionControl { max_in_system: None }
    }

    /// Reject arrivals while `max_in_system` jobs are unfinished.
    pub fn bounded(max_in_system: usize) -> Self {
        AdmissionControl { max_in_system: Some(max_in_system) }
    }

    /// Whether an arrival is admitted when `in_system` jobs are unfinished.
    pub(crate) fn admits(&self, in_system: usize) -> bool {
        self.max_in_system.is_none_or(|cap| in_system < cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(SchedulingPolicy::Fifo.name(), "fifo");
        assert_eq!(SchedulingPolicy::ProcessorSharing.name(), "processor_sharing");
        assert_eq!(SchedulingPolicy::ShortestRemainingService.name(), "shortest_remaining");
        assert_eq!(SchedulingPolicy::ALL.len(), 3);
    }

    #[test]
    fn admission_bounds_the_system() {
        let open = AdmissionControl::unbounded();
        assert!(open.admits(0) && open.admits(1_000_000));
        let tight = AdmissionControl::bounded(2);
        assert!(tight.admits(0) && tight.admits(1));
        assert!(!tight.admits(2) && !tight.admits(3));
    }
}
