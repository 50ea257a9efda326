use std::error::Error as StdError;
use std::fmt;

use pipetune_clustering::ClusteringError;
use pipetune_dnn::DnnError;
use pipetune_perfmon::PerfmonError;
use pipetune_telemetry::TraceError;
use pipetune_tsdb::TsdbError;

/// The one error type of the `pipetune` facade: every subsystem failure a
/// binary driving the middleware can meet converges here with `?`.
#[derive(Debug)]
pub enum PipeTuneError {
    /// Training substrate failure.
    Dnn(DnnError),
    /// Ground-truth clustering failure.
    Clustering(ClusteringError),
    /// Metric-store failure.
    Tsdb(TsdbError),
    /// Hardware-counter profiling failure.
    Perfmon(PerfmonError),
    /// Telemetry trace validation/export failure.
    Trace(TraceError),
    /// An experiment or tuner configuration is invalid — what a validating
    /// constructor such as [`crate::ExperimentEnvBuilder::build`] returns.
    InvalidConfig {
        /// Human-readable description of the rule that was violated.
        reason: String,
    },
    /// A trial exhausted its fault-recovery retry budget and was abandoned
    /// (see `RetryPolicy` and the fault model in `docs/faults.md`).
    RetriesExhausted {
        /// Scheduler id of the abandoned trial.
        trial_id: u64,
        /// Attempts made on the failing epoch before giving up.
        attempts: u32,
    },
}

impl PipeTuneError {
    /// An [`PipeTuneError::InvalidConfig`] with the given reason.
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        PipeTuneError::InvalidConfig { reason: reason.into() }
    }
}

impl fmt::Display for PipeTuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipeTuneError::Dnn(e) => write!(f, "training error: {e}"),
            PipeTuneError::Clustering(e) => write!(f, "clustering error: {e}"),
            PipeTuneError::Tsdb(e) => write!(f, "metric store error: {e}"),
            PipeTuneError::Perfmon(e) => write!(f, "profiling error: {e}"),
            PipeTuneError::Trace(e) => write!(f, "trace error: {e}"),
            PipeTuneError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            PipeTuneError::RetriesExhausted { trial_id, attempts } => {
                write!(
                    f,
                    "trial {trial_id} abandoned after {attempts} failed attempts on one epoch"
                )
            }
        }
    }
}

impl StdError for PipeTuneError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            PipeTuneError::Dnn(e) => Some(e),
            PipeTuneError::Clustering(e) => Some(e),
            PipeTuneError::Tsdb(e) => Some(e),
            PipeTuneError::Perfmon(e) => Some(e),
            PipeTuneError::Trace(e) => Some(e),
            PipeTuneError::InvalidConfig { .. } | PipeTuneError::RetriesExhausted { .. } => None,
        }
    }
}

impl From<DnnError> for PipeTuneError {
    fn from(e: DnnError) -> Self {
        PipeTuneError::Dnn(e)
    }
}

impl From<ClusteringError> for PipeTuneError {
    fn from(e: ClusteringError) -> Self {
        PipeTuneError::Clustering(e)
    }
}

impl From<TsdbError> for PipeTuneError {
    fn from(e: TsdbError) -> Self {
        PipeTuneError::Tsdb(e)
    }
}

impl From<PerfmonError> for PipeTuneError {
    fn from(e: PerfmonError) -> Self {
        PipeTuneError::Perfmon(e)
    }
}

impl From<TraceError> for PipeTuneError {
    fn from(e: TraceError) -> Self {
        PipeTuneError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sub_errors_with_sources() {
        let e: PipeTuneError = DnnError::InvalidConfig { reason: "x".into() }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("training error"));
        let e: PipeTuneError = TsdbError::InvalidPoint { reason: "empty".into() }.into();
        assert!(matches!(e, PipeTuneError::Tsdb(_)) && e.source().is_some());
        let e = PipeTuneError::invalid("workers must be at least 1");
        assert!(e.source().is_none());
        assert_eq!(e.to_string(), "invalid configuration: workers must be at least 1");
    }

    #[test]
    fn retries_exhausted_names_the_trial_and_budget() {
        let e = PipeTuneError::RetriesExhausted { trial_id: 12, attempts: 3 };
        assert!(e.source().is_none());
        let msg = e.to_string();
        assert!(msg.contains("12") && msg.contains('3') && msg.contains("abandoned"), "{msg}");
    }
}
