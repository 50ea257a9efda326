//! Scheduling policies for the tuning service.

/// How the service divides the shared cluster among concurrently submitted
/// jobs. All three policies are work-conserving: whenever at least one
/// submitted job is unfinished, the full configured capacity is busy, so
/// the last completion time of a job stream is policy-independent (pinned
/// by the property suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First-in-first-out over `servers` dedicated partitions: jobs start
    /// in arrival order as partitions free up and then run dedicated. With
    /// one server this is the paper's §5.1 regime and reproduces
    /// `pipetune::simulate_fifo` exactly.
    Fifo,
    /// Egalitarian processor sharing: every unfinished job is always
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
}
