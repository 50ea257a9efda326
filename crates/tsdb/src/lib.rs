//! Embedded time-series store standing in for InfluxDB.
//!
//! The paper's prototype persists every per-epoch metric and profile to
//! InfluxDB (v1.7.4) and queries it from the ground-truth module (§6). This
//! crate provides the same contract in-process: tagged, timestamped points
//! with range queries, tag filtering, aggregation and JSON persistence.
//!
//! The store is thread-safe (PipeTune's pipelined system tuning writes from
//! trial threads while the ground-truth reader queries).
//!
//! # Example
//!
//! ```
//! use pipetune_tsdb::{Database, Point, Query};
//!
//! let db = Database::new();
//! db.write(
//!     Point::new("epoch_metrics", 1_000)
//!         .tag("workload", "lenet/mnist")
//!         .field("runtime_secs", 42.0),
//! )?;
//! let rows = db.query(&Query::measurement("epoch_metrics").with_tag("workload", "lenet/mnist"))?;
//! assert_eq!(rows.len(), 1);
//! # Ok::<(), pipetune_tsdb::TsdbError>(())
//! ```

#![warn(missing_docs)]

mod db;
mod line_protocol;
mod point;
mod query;

pub use db::{write_atomic, Database};
pub use point::Point;
pub use query::{Aggregate, Query};

use std::error::Error;
use std::fmt;

/// Error type for database operations.
#[derive(Debug)]
pub enum TsdbError {
    /// A point was rejected (empty measurement or no fields).
    InvalidPoint {
        /// Why the point was rejected.
        reason: String,
    },
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// Persisted JSON could not be decoded.
    Corrupt {
        /// Decoder error text.
        reason: String,
    },
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::InvalidPoint { reason } => write!(f, "invalid point: {reason}"),
            TsdbError::Io(e) => write!(f, "i/o error: {e}"),
            TsdbError::Corrupt { reason } => write!(f, "corrupt database file: {reason}"),
        }
    }
}

impl Error for TsdbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TsdbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TsdbError {
    fn from(e: std::io::Error) -> Self {
        TsdbError::Io(e)
    }
}
