//! Structural validation of traces: a [`TelemetrySnapshot::validate`] pass
//! that rejects malformed span trees with typed [`TraceError`]s.
//!
//! The executor only ever produces well-formed traces, but traces also
//! arrive from *outside* — `pipetune-bench trace` re-imports JSON dumps that may
//! have been truncated, hand-edited or produced by a buggy exporter. Every
//! analysis in `pipetune-insight` assumes the invariants below, so the CLI
//! validates before analysing.

use std::error::Error;
use std::fmt;

use crate::handle::TelemetrySnapshot;
use crate::span::SpanKind;

/// A structural defect in a trace (or a parse failure while re-importing
/// one). Each variant carries the index of the offending span or event
/// within the snapshot's `spans` / `events` vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The JSON text could not be parsed back into a snapshot.
    Parse {
        /// Parser or shape-mismatch diagnostic.
        reason: String,
    },
    /// A span closes before it opens (`end_secs < start_secs`).
    EndBeforeStart {
        /// Index of the offending span.
        span: usize,
    },
    /// A span's parent id does not name an *earlier* span: it is out of
    /// range, a forward reference, or a self reference. (The recording
    /// contract guarantees parents are recorded before children.)
    OrphanParent {
        /// Index of the offending span.
        span: usize,
        /// The dangling parent id.
        parent: u32,
    },
    /// A closed span's interval sticks out of its (closed) parent's
    /// interval. Only checked for parent/child pairs that share a clock —
    /// `rung` in `tuning_run`, `batch` in `rung` and `epoch` in `trial`;
    /// `trial` spans live on the trial-cumulative clock while their `batch`
    /// parents live on the shared wall clock (see [`SpanKind`]), so that
    /// pair is exempt.
    ChildOutsideParent {
        /// Index of the offending span.
        span: usize,
        /// Index of its parent.
        parent: u32,
    },
    /// A span's parent has the wrong kind for the
    /// `service > job > tuning_run > rung > batch > trial > epoch`
    /// taxonomy.
    MisparentedKind {
        /// Index of the offending span.
        span: usize,
        /// Index of its parent.
        parent: u32,
    },
    /// An event references a span id that does not exist.
    OrphanEventSpan {
        /// Index of the offending event.
        event: usize,
        /// The dangling span id.
        span: u32,
    },
    /// An event's timestamp falls outside its owning span's interval.
    /// Events share their owning span's clock domain (see
    /// [`crate::Event::at_secs`]), so containment is checked for every
    /// event kind — including the `shed` and `cache_lookup` points the
    /// service and epoch-reuse cache record. An open owning span only
    /// bounds the event from below.
    EventOutsideSpan {
        /// Index of the offending event.
        event: usize,
        /// Index of its owning span.
        span: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { reason } => write!(f, "trace parse error: {reason}"),
            TraceError::EndBeforeStart { span } => {
                write!(f, "span {span} ends before it starts")
            }
            TraceError::OrphanParent { span, parent } => {
                write!(f, "span {span} references parent {parent}, which is not an earlier span")
            }
            TraceError::ChildOutsideParent { span, parent } => {
                write!(f, "span {span}'s interval lies outside its parent {parent}'s interval")
            }
            TraceError::MisparentedKind { span, parent } => {
                write!(f, "span {span}'s kind cannot be a child of parent {parent}'s kind")
            }
            TraceError::OrphanEventSpan { event, span } => {
                write!(f, "event {event} references span {span}, which does not exist")
            }
            TraceError::EventOutsideSpan { event, span } => {
                write!(f, "event {event}'s timestamp lies outside its span {span}'s interval")
            }
        }
    }
}

impl Error for TraceError {}

/// Interval containment is only meaningful between spans on the same
/// simulated clock (see [`SpanKind`]): `trial` spans are timestamped on the
/// trial-cumulative clock while `batch` parents use the shared wall clock,
/// and `tuning_run` spans restart their wall clock at zero while `job`
/// parents stay on the service's arrival clock.
fn same_clock(child: SpanKind, parent: SpanKind) -> bool {
    matches!(
        (child, parent),
        (SpanKind::Job, SpanKind::Service)
            | (SpanKind::Rung, SpanKind::TuningRun)
            | (SpanKind::Batch, SpanKind::Rung)
            | (SpanKind::Epoch, SpanKind::Trial)
    )
}

/// Whether a span of kind `child` may be parented under a span of kind
/// `parent`. `service` spans are roots and must not have a parent;
/// `tuning_run` spans are roots on a dedicated cluster but sit under a
/// `job` span when a multi-job service drives them.
fn parent_kind_ok(child: SpanKind, parent: SpanKind) -> bool {
    matches!(
        (child, parent),
        (SpanKind::Job, SpanKind::Service)
            | (SpanKind::TuningRun, SpanKind::Job)
            | (SpanKind::Rung, SpanKind::TuningRun)
            | (SpanKind::Batch, SpanKind::Rung)
            | (SpanKind::Trial, SpanKind::Batch)
            | (SpanKind::Epoch, SpanKind::Trial)
    )
}

impl TelemetrySnapshot {
    /// Checks the span tree's structural invariants and returns the first
    /// violation found (in span order, then event order).
    ///
    /// Invariants: parents are earlier spans; closed spans end no earlier
    /// than they start; same-clock children stay inside their parent's
    /// interval (with a tiny relative tolerance for float re-association);
    /// the `service > job > tuning_run > rung > batch > trial > epoch`
    /// taxonomy is respected; events point at existing spans and their
    /// timestamps stay inside the owning span's interval (events share the
    /// owning span's clock domain). Open spans (`NaN` end) skip the
    /// interval checks — a snapshot may be taken mid-run — and only bound
    /// their events from below.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] violated, if any.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle, TraceError};
    ///
    /// let telemetry = TelemetryHandle::enabled();
    /// let run = telemetry.open_span(SpanId::NONE, SpanKind::TuningRun, "job", 0.0, vec![]);
    /// telemetry.close_span(run, 10.0);
    /// let mut snap = telemetry.snapshot().unwrap();
    /// assert_eq!(snap.validate(), Ok(()));
    ///
    /// snap.spans[0].end_secs = -1.0; // corrupt it
    /// assert_eq!(snap.validate(), Err(TraceError::EndBeforeStart { span: 0 }));
    /// ```
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_secs.is_finite() && span.end_secs < span.start_secs {
                return Err(TraceError::EndBeforeStart { span: i });
            }
            // Non-root kinds may legitimately be recorded without a parent
            // (worker buffers hold rootless spans until the merge re-parents
            // them), so a missing parent is never an error.
            let Some(p) = span.parent else { continue };
            if p as usize >= i {
                return Err(TraceError::OrphanParent { span: i, parent: p });
            }
            let parent = &self.spans[p as usize];
            if !parent_kind_ok(span.kind, parent.kind) {
                return Err(TraceError::MisparentedKind { span: i, parent: p });
            }
            if same_clock(span.kind, parent.kind)
                && span.end_secs.is_finite()
                && parent.end_secs.is_finite()
            {
                // Start/end points are re-derived by subtraction at the
                // record sites, so allow float re-association slack.
                let eps = 1e-6 * parent.end_secs.abs().max(1.0);
                if span.start_secs < parent.start_secs - eps
                    || span.end_secs > parent.end_secs + eps
                {
                    return Err(TraceError::ChildOutsideParent { span: i, parent: p });
                }
            }
        }
        for (i, event) in self.events.iter().enumerate() {
            if let Some(s) = event.span {
                if s as usize >= self.spans.len() {
                    return Err(TraceError::OrphanEventSpan { event: i, span: s });
                }
                // Events are timestamped on their owning span's clock
                // (`Event::at_secs`), so every kind — `shed` and
                // `cache_lookup` included — must fall inside the span's
                // interval; an open span only bounds from below.
                let owner = &self.spans[s as usize];
                let eps = 1e-6
                    * if owner.end_secs.is_finite() { owner.end_secs } else { owner.start_secs }
                        .abs()
                        .max(1.0);
                if event.at_secs < owner.start_secs - eps
                    || (owner.end_secs.is_finite() && event.at_secs > owner.end_secs + eps)
                {
                    return Err(TraceError::EventOutsideSpan { event: i, span: s });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Event, EventKind, Span};
    use crate::MetricsRegistry;

    fn span(kind: SpanKind, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            kind,
            label: kind.name().into(),
            parent,
            start_secs: start,
            end_secs: end,
            attrs: vec![],
        }
    }

    fn snapshot(spans: Vec<Span>, events: Vec<Event>) -> TelemetrySnapshot {
        TelemetrySnapshot { spans, events, metrics: MetricsRegistry::new() }
    }

    #[test]
    fn well_formed_tree_passes() {
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 100.0),
                span(SpanKind::Rung, Some(0), 0.0, 50.0),
                span(SpanKind::Batch, Some(1), 0.0, 50.0),
                // Trial on its own clock: interval exceeds the batch's — legal.
                span(SpanKind::Trial, Some(2), 900.0, 960.0),
                span(SpanKind::Epoch, Some(3), 900.0, 930.0),
            ],
            vec![Event { kind: EventKind::Probe, span: Some(4), at_secs: 930.0, attrs: vec![] }],
        );
        assert_eq!(snap.validate(), Ok(()));
    }

    #[test]
    fn open_spans_skip_interval_checks() {
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, f64::NAN),
                span(SpanKind::Rung, Some(0), 5.0, f64::NAN),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Ok(()));
    }

    #[test]
    fn end_before_start_is_rejected() {
        let snap = snapshot(vec![span(SpanKind::TuningRun, None, 10.0, 9.0)], vec![]);
        assert_eq!(snap.validate(), Err(TraceError::EndBeforeStart { span: 0 }));
    }

    #[test]
    fn forward_and_out_of_range_parents_are_orphans() {
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 1.0),
                span(SpanKind::Rung, Some(7), 0.0, 1.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::OrphanParent { span: 1, parent: 7 }));
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 1.0),
                span(SpanKind::Rung, Some(1), 0.0, 1.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::OrphanParent { span: 1, parent: 1 }));
    }

    #[test]
    fn child_escaping_its_parent_is_rejected() {
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 10.0),
                span(SpanKind::Rung, Some(0), 2.0, 11.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::ChildOutsideParent { span: 1, parent: 0 }));
    }

    #[test]
    fn taxonomy_violations_are_rejected() {
        // An epoch directly under a tuning_run skips the trial level.
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 10.0),
                span(SpanKind::Epoch, Some(0), 0.0, 1.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::MisparentedKind { span: 1, parent: 0 }));
    }

    #[test]
    fn service_job_tuning_run_prefix_is_accepted() {
        let snap = snapshot(
            vec![
                span(SpanKind::Service, None, 0.0, 500.0),
                span(SpanKind::Job, Some(0), 10.0, 400.0),
                // Runs restart their wall clock at zero, so the interval may
                // exceed the job's — the pair is cross-clock and exempt.
                span(SpanKind::TuningRun, Some(1), 0.0, 390.0),
                span(SpanKind::Rung, Some(2), 0.0, 100.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Ok(()));
    }

    #[test]
    fn job_outside_its_service_interval_is_rejected() {
        let snap = snapshot(
            vec![
                span(SpanKind::Service, None, 0.0, 100.0),
                span(SpanKind::Job, Some(0), 10.0, 101.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::ChildOutsideParent { span: 1, parent: 0 }));
    }

    #[test]
    fn service_must_be_a_root_and_job_must_sit_under_a_service() {
        let snap = snapshot(
            vec![
                span(SpanKind::Service, None, 0.0, 10.0),
                span(SpanKind::Service, Some(0), 0.0, 5.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::MisparentedKind { span: 1, parent: 0 }));
        let snap = snapshot(
            vec![
                span(SpanKind::TuningRun, None, 0.0, 10.0),
                span(SpanKind::Job, Some(0), 0.0, 5.0),
            ],
            vec![],
        );
        assert_eq!(snap.validate(), Err(TraceError::MisparentedKind { span: 1, parent: 0 }));
    }

    #[test]
    fn events_must_point_at_existing_spans() {
        let snap = snapshot(
            vec![span(SpanKind::TuningRun, None, 0.0, 1.0)],
            vec![Event { kind: EventKind::Fault, span: Some(3), at_secs: 0.5, attrs: vec![] }],
        );
        assert_eq!(snap.validate(), Err(TraceError::OrphanEventSpan { event: 0, span: 3 }));
    }

    #[test]
    fn event_timestamps_must_stay_inside_their_span() {
        let spans = vec![span(SpanKind::Trial, None, 900.0, 960.0)];
        // In range (boundaries included, with eps slack).
        for at in [900.0, 930.0, 960.0, 960.0 + 1e-7] {
            let snap = snapshot(
                spans.clone(),
                vec![Event {
                    kind: EventKind::CacheLookup,
                    span: Some(0),
                    at_secs: at,
                    attrs: vec![],
                }],
            );
            assert_eq!(snap.validate(), Ok(()), "at_secs {at} should be contained");
        }
        // Outside, before or after — `shed` and `cache_lookup` points are
        // clock-checked like every other kind.
        for (kind, at) in [(EventKind::Shed, 899.0), (EventKind::CacheLookup, 961.0)] {
            let snap = snapshot(
                spans.clone(),
                vec![Event { kind, span: Some(0), at_secs: at, attrs: vec![] }],
            );
            assert_eq!(
                snap.validate(),
                Err(TraceError::EventOutsideSpan { event: 0, span: 0 }),
                "at_secs {at} should be rejected"
            );
        }
        // An open span bounds only from below.
        let open = vec![span(SpanKind::Trial, None, 900.0, f64::NAN)];
        let snap = snapshot(
            open.clone(),
            vec![Event { kind: EventKind::Shed, span: Some(0), at_secs: 5000.0, attrs: vec![] }],
        );
        assert_eq!(snap.validate(), Ok(()));
        let snap = snapshot(
            open,
            vec![Event { kind: EventKind::Shed, span: Some(0), at_secs: 1.0, attrs: vec![] }],
        );
        assert_eq!(snap.validate(), Err(TraceError::EventOutsideSpan { event: 0, span: 0 }));
    }

    #[test]
    fn errors_display_their_indices() {
        let text = TraceError::ChildOutsideParent { span: 4, parent: 2 }.to_string();
        assert!(text.contains('4') && text.contains('2'), "{text}");
    }
}
