use std::error::Error as StdError;
use std::fmt;

use pipetune_clustering::ClusteringError;
use pipetune_dnn::DnnError;
use pipetune_perfmon::PerfmonError;
use pipetune_telemetry::TraceError;
use pipetune_tsdb::TsdbError;

/// Error type for PipeTune middleware operations.
#[derive(Debug)]
pub enum PipeTuneError {
    /// Training substrate failure.
    Dnn(DnnError),
    /// Ground-truth clustering failure.
    Clustering(ClusteringError),
    /// Metric-store failure.
    Tsdb(TsdbError),
    /// An experiment or tuner configuration is invalid.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// A trial exhausted its fault-recovery retry budget and was abandoned
    /// (see `RetryPolicy` and the fault model in `DESIGN.md`).
    RetriesExhausted {
        /// Scheduler id of the abandoned trial.
        trial_id: u64,
        /// Attempts made on the failing epoch before giving up.
        attempts: u32,
    },
}

impl fmt::Display for PipeTuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipeTuneError::Dnn(e) => write!(f, "training error: {e}"),
            PipeTuneError::Clustering(e) => write!(f, "clustering error: {e}"),
            PipeTuneError::Tsdb(e) => write!(f, "metric store error: {e}"),
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

/// A configuration rejected by a validating constructor, carrying the
/// human-readable rule that was violated.
///
/// Produced by [`crate::ExperimentEnvBuilder::build`] (and any future
/// fallible builder); convertible into [`PipeTuneError::InvalidConfig`] and
/// the top-level [`Error`] with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    reason: String,
}

impl InvalidConfig {
    /// An invalid-config error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        InvalidConfig { reason: reason.into() }
    }
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.reason)
    }
}

impl StdError for InvalidConfig {}

impl From<InvalidConfig> for PipeTuneError {
    fn from(e: InvalidConfig) -> Self {
        PipeTuneError::InvalidConfig { reason: e.reason }
    }
}

/// Umbrella error for applications built on the `pipetune` facade.
///
/// Each subsystem keeps its own precise error type ([`PipeTuneError`],
/// [`TsdbError`], [`PerfmonError`], [`TraceError`]); this enum exists so a
/// binary that drives several subsystems can use one `Result<_,
/// pipetune::Error>` and let `?` converge everything.
///
/// ```
/// use pipetune::{Error, InvalidConfig, PipeTuneError};
///
/// fn run() -> Result<(), Error> {
///     Err(InvalidConfig::new("demo"))?
/// }
/// let err = run().unwrap_err();
/// assert!(matches!(err, Error::PipeTune(PipeTuneError::InvalidConfig { .. })));
/// ```
#[derive(Debug)]
pub enum Error {
    /// Middleware failure (tuning, training, cluster, configuration).
    PipeTune(PipeTuneError),
    /// Metric-store failure.
    Tsdb(TsdbError),
    /// Hardware-counter profiling failure.
    Perfmon(PerfmonError),
    /// Telemetry trace validation/export failure.
    Trace(TraceError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PipeTune(e) => write!(f, "{e}"),
            Error::Tsdb(e) => write!(f, "metric store error: {e}"),
            Error::Perfmon(e) => write!(f, "profiling error: {e}"),
            Error::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::PipeTune(e) => Some(e),
            Error::Tsdb(e) => Some(e),
            Error::Perfmon(e) => Some(e),
            Error::Trace(e) => Some(e),
        }
    }
}

impl From<PipeTuneError> for Error {
    fn from(e: PipeTuneError) -> Self {
        Error::PipeTune(e)
    }
}

impl From<InvalidConfig> for Error {
    fn from(e: InvalidConfig) -> Self {
        Error::PipeTune(e.into())
    }
}

impl From<TsdbError> for Error {
    fn from(e: TsdbError) -> Self {
        Error::Tsdb(e)
    }
}

impl From<PerfmonError> for Error {
    fn from(e: PerfmonError) -> Self {
        Error::Perfmon(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
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
        let e = PipeTuneError::InvalidConfig { reason: "bad".into() };
        assert!(e.source().is_none());
    }

    #[test]
    fn umbrella_error_converges_subsystem_errors() {
        let e: Error = PipeTuneError::InvalidConfig { reason: "x".into() }.into();
        assert!(e.source().is_some());
        let e: Error = InvalidConfig::new("bad workers").into();
        assert!(matches!(&e, Error::PipeTune(PipeTuneError::InvalidConfig { reason }) if reason == "bad workers"));
        assert!(e.to_string().contains("bad workers"));
        let e: Error = TsdbError::InvalidPoint { reason: "empty".into() }.into();
        assert!(matches!(e, Error::Tsdb(_)) && e.source().is_some());
    }

    #[test]
    fn invalid_config_reports_reason() {
        let e = InvalidConfig::new("workers must be at least 1");
        assert_eq!(e.to_string(), "invalid configuration: workers must be at least 1");
        let p: PipeTuneError = e.into();
        assert!(matches!(p, PipeTuneError::InvalidConfig { .. }));
    }

    #[test]
    fn retries_exhausted_names_the_trial_and_budget() {
        let e = PipeTuneError::RetriesExhausted { trial_id: 12, attempts: 3 };
        assert!(e.source().is_none());
        let msg = e.to_string();
        assert!(msg.contains("12") && msg.contains('3') && msg.contains("abandoned"), "{msg}");
    }
}
