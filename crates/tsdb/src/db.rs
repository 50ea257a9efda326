//! The thread-safe store.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::line_protocol::LineReader;
use crate::{Aggregate, Point, Query, TsdbError};

/// In-memory, thread-safe time-series store with JSON persistence.
///
/// Writers (per-trial system tuners) and readers (the ground-truth module)
/// may operate concurrently; consistency is per-call.
#[derive(Debug, Default)]
pub struct Database {
    points: RwLock<Vec<Point>>,
}

/// `point` itself when it can be stored, the typed rejection otherwise.
fn storable(point: Point) -> Result<Point, TsdbError> {
    if point.is_storable() {
        Ok(point)
    } else {
        Err(TsdbError::InvalidPoint {
            reason: "measurement and at least one field are required".into(),
        })
    }
}

/// Writes `contents` to `path` crash-safely: the bytes go to a unique
/// temporary file in the destination directory and are published with an
/// atomic rename. The temporary file is removed when either step fails.
///
/// # Errors
///
/// Returns [`TsdbError::Io`] on filesystem failures.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), TsdbError> {
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("file"),
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let published = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if published.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    Ok(published?)
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The stored points, shared; a panicked writer leaves them readable.
    fn points(&self) -> RwLockReadGuard<'_, Vec<Point>> {
        self.points.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored points, exclusively.
    fn points_mut(&self) -> RwLockWriteGuard<'_, Vec<Point>> {
        self.points.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores one point.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::InvalidPoint`] for points without a measurement
    /// name or without fields.
    pub fn write(&self, point: Point) -> Result<(), TsdbError> {
        self.points_mut().push(storable(point)?);
        Ok(())
    }

    /// Returns every point matching `query`, in insertion order.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for storage-backend
    /// errors.
    pub fn query(&self, query: &Query) -> Result<Vec<Point>, TsdbError> {
        Ok(self.points().iter().filter(|p| query.matches(p)).cloned().collect())
    }

    /// Aggregates `field` over the points matching `query`.
    ///
    /// Points lacking the field are skipped. Returns `None` when nothing
    /// matched.
    ///
    /// # Errors
    ///
    /// Currently infallible (see [`Database::query`]).
    pub fn aggregate(
        &self,
        query: &Query,
        field: &str,
        agg: Aggregate,
    ) -> Result<Option<f64>, TsdbError> {
        let values: Vec<f64> = self
            .points()
            .iter()
            .filter(|p| query.matches(p))
            .filter_map(|p| p.field_value(field))
            .collect();
        Ok(agg.apply(&values))
    }

    /// Exports every stored point as Influx line protocol, one per line.
    pub fn to_line_protocol(&self) -> String {
        let mut out = String::new();
        for (i, point) in self.points().iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            point.write_line_protocol(&mut out);
        }
        out
    }

    /// Imports points from Influx line protocol (one point per non-empty,
    /// non-comment line). All or nothing: the whole text is parsed before
    /// the store is touched, so a text with a malformed line anywhere in it
    /// leaves the store as it was, and writers and readers wait only for
    /// the parsed points to be appended.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Corrupt`] for the first malformed line; nothing
    /// is imported.
    pub fn import_line_protocol(&self, text: &str) -> Result<usize, TsdbError> {
        let (mut parsed, mut reader) = (Vec::new(), LineReader::default());
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            parsed.push(storable(reader.read(line)?)?);
        }
        let imported = parsed.len();
        self.points_mut().append(&mut parsed);
        Ok(imported)
    }

    /// Total number of stored points.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// Returns `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// Serialises the whole store to a JSON file.
    ///
    /// The write is crash-safe ([`write_atomic`]): a crash mid-save leaves
    /// either the previous file or the new one — never a truncated mix
    /// (the warm-start path depends on this).
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), TsdbError> {
        let guard = self.points();
        let json = serde_json::to_string(&*guard)
            .map_err(|e| TsdbError::Corrupt { reason: e.to_string() })?;
        drop(guard);
        write_atomic(path, &json)
    }

    /// Loads a store previously written by [`Database::save`].
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Io`] on filesystem failures and
    /// [`TsdbError::Corrupt`] when the JSON cannot be decoded.
    pub fn load(path: &Path) -> Result<Self, TsdbError> {
        let text = std::fs::read_to_string(path)?;
        let points: Vec<Point> = serde_json::from_str(&text)
            .map_err(|e| TsdbError::Corrupt { reason: e.to_string() })?;
        Ok(Database { points: RwLock::new(points) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let db = Database::new();
        for i in 0..10u64 {
            let workload = if i % 2 == 0 { "lenet" } else { "cnn" };
            db.write(
                Point::new("epoch", i * 1000).tag("workload", workload).field("runtime", i as f64),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn query_filters_by_tag_and_time() {
        let db = sample_db();
        let q = Query::measurement("epoch").with_tag("workload", "lenet").from_us(4000);
        let rows = db.query(&q).unwrap();
        assert_eq!(rows.len(), 3); // i = 4, 6, 8
    }

    #[test]
    fn aggregate_mean_over_filter() {
        let db = sample_db();
        let q = Query::measurement("epoch").with_tag("workload", "cnn");
        let mean = db.aggregate(&q, "runtime", Aggregate::Mean).unwrap().unwrap();
        assert_eq!(mean, 5.0); // (1+3+5+7+9)/5
    }

    #[test]
    fn aggregate_of_nothing_is_none() {
        let db = sample_db();
        let q = Query::measurement("missing");
        assert_eq!(db.aggregate(&q, "runtime", Aggregate::Sum).unwrap(), None);
    }

    #[test]
    fn invalid_point_is_rejected() {
        let db = Database::new();
        assert!(db.write(Point::new("m", 0)).is_err());
        assert!(db.is_empty());
    }

    #[test]
    fn line_protocol_round_trips_the_store() {
        let db = sample_db();
        let text = db.to_line_protocol();
        let restored = Database::new();
        let n = restored.import_line_protocol(&text).unwrap();
        assert_eq!(n, db.len());
        let q = Query::measurement("epoch").with_tag("workload", "cnn");
        assert_eq!(
            restored.aggregate(&q, "runtime", Aggregate::Mean).unwrap(),
            db.aggregate(&q, "runtime", Aggregate::Mean).unwrap()
        );
    }

    #[test]
    fn import_skips_comments_and_blank_lines() {
        let db = Database::new();
        let n = db.import_line_protocol("# comment\n\nm f=1 5\nm f=2 6\n").unwrap();
        assert_eq!(n, 2);
        assert!(db.import_line_protocol("garbage").is_err());
    }

    #[test]
    fn a_failed_import_imports_nothing() {
        let db = sample_db();
        let before = db.to_line_protocol();
        let err = db.import_line_protocol("m f=1 5\nm f=2 6\nm f=x 7\nm f=3 8\n").unwrap_err();
        assert!(matches!(err, TsdbError::Corrupt { .. }), "{err}");
        assert_eq!(db.to_line_protocol(), before);
    }

    #[test]
    fn save_and_load_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("pipetune_tsdb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_existing_file_atomically_and_leaves_no_temp() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("pipetune_tsdb_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        // Overwrite an existing (stale) file in place.
        std::fs::write(&path, "stale contents").unwrap();
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        let leftovers = || -> Vec<_> {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .collect()
        };
        assert!(leftovers().is_empty(), "a successful save left temp files: {:?}", leftovers());
        // Saving into a missing directory fails without clobbering `path`.
        let bad = dir.join("no_such_dir").join("db.json");
        assert!(matches!(db.save(&bad), Err(TsdbError::Io(_))));
        assert!(Database::load(&path).is_ok(), "original file untouched");
        // A failed publish (the destination is a non-empty directory, so
        // the temp file is written but cannot be renamed) cleans up too.
        let occupied = dir.join("occupied");
        std::fs::create_dir_all(occupied.join("child")).unwrap();
        assert!(matches!(db.save(&occupied), Err(TsdbError::Io(_))));
        assert!(leftovers().is_empty(), "a failed save left temp files: {:?}", leftovers());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_corrupt_json() {
        let dir = std::env::temp_dir().join("pipetune_tsdb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(Database::load(&path), Err(TsdbError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writes_and_reads() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        db.write(Point::new("m", t * 1000 + i).field("x", i as f64)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(db.len(), 400);
    }
}
