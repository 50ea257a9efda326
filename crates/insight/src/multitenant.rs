//! Multi-tenant response-time analytics.
//!
//! A `pipetune-service` run yields one response time (completion −
//! arrival) per completed job. These helpers turn that population into the
//! per-policy summary the benchmark harness persists in a
//! [`crate::BenchReport`]: mean, nearest-rank percentiles (the embedded
//! [`pipetune_tsdb`] store's selectors, as the critical-path report uses
//! them) and the maximum. Shed and abandoned jobs carry `NaN` response
//! times and are excluded, so the caller can pass a service outcome's
//! records straight through.

use std::collections::BTreeMap;

use pipetune_cluster::ServiceFaultReport;
use pipetune_tsdb::Aggregate;

/// Response-time summary over one service run's completed jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseStats {
    /// Jobs with a finite response time (the completed ones).
    pub jobs: usize,
    /// Mean response time, seconds.
    pub mean_secs: f64,
    /// Median response time, seconds (nearest rank).
    pub p50_secs: f64,
    /// 95th-percentile response time, seconds (nearest rank).
    pub p95_secs: f64,
    /// 99th-percentile response time, seconds (nearest rank).
    pub p99_secs: f64,
    /// Worst response time, seconds.
    pub max_secs: f64,
}

/// Summarises a population of per-job response times. Non-finite entries
/// (shed and abandoned jobs) are dropped; `None` when nothing finite remains.
///
/// # Example
///
/// ```
/// use pipetune_insight::response_stats;
///
/// let stats = response_stats(&[10.0, 30.0, f64::NAN, 20.0]).unwrap();
/// assert_eq!(stats.jobs, 3);
/// assert_eq!(stats.mean_secs, 20.0);
/// assert_eq!(stats.p50_secs, 20.0);
/// assert_eq!(stats.max_secs, 30.0);
/// assert!(response_stats(&[f64::NAN]).is_none());
/// ```
pub fn response_stats(responses_secs: &[f64]) -> Option<ResponseStats> {
    let finite: Vec<f64> = responses_secs.iter().copied().filter(|r| r.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let get = |agg: Aggregate| agg.apply(&finite);
    Some(ResponseStats {
        jobs: finite.len(),
        mean_secs: get(Aggregate::Mean)?,
        p50_secs: get(Aggregate::P50)?,
        p95_secs: get(Aggregate::P95)?,
        p99_secs: get(Aggregate::P99)?,
        max_secs: get(Aggregate::Max)?,
    })
}

/// Builds the `BenchReport` metric entries for one service run, keyed
/// `"{prefix}.{stat}"` (the harness uses `multitenant.{policy}` prefixes,
/// so the gate's `mean_response_secs` / `p95_response_secs` suffix
/// tolerances cover every policy). Empty when no job completed.
///
/// # Example
///
/// ```
/// use pipetune_insight::multitenant_metrics;
///
/// let m = multitenant_metrics("multitenant.fifo", &[10.0, 20.0]);
/// assert_eq!(m["multitenant.fifo.jobs"], 2.0);
/// assert_eq!(m["multitenant.fifo.mean_response_secs"], 15.0);
/// assert!(multitenant_metrics("multitenant.fifo", &[]).is_empty());
/// ```
pub fn multitenant_metrics(prefix: &str, responses_secs: &[f64]) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    if let Some(stats) = response_stats(responses_secs) {
        let mut put = |name: &str, value: f64| {
            metrics.insert(format!("{prefix}.{name}"), value);
        };
        put("jobs", stats.jobs as f64);
        put("mean_response_secs", stats.mean_secs);
        put("p50_response_secs", stats.p50_secs);
        put("p95_response_secs", stats.p95_secs);
        put("p99_response_secs", stats.p99_secs);
        put("max_response_secs", stats.max_secs);
    }
    metrics
}

/// Builds the `BenchReport` metric entries describing how one service run
/// weathered its service-level fault schedule, keyed `"{prefix}.{stat}"`
/// (same prefixes as [`multitenant_metrics`], so the chaos gate's suffix
/// tolerances cover every policy). Rates are over `submitted_jobs`
/// (0 when nothing was submitted); `recovery_overhead_secs` is the total
/// crash-lost work plus resubmission backoff.
///
/// # Example
///
/// ```
/// use pipetune_cluster::ServiceFaultReport;
/// use pipetune_insight::service_fault_metrics;
///
/// let mut report = ServiceFaultReport::default();
/// report.jobs_shed = 1;
/// report.job_crashes = 2;
/// report.lost_service_secs = 40.0;
/// report.backoff_secs = 10.0;
/// let m = service_fault_metrics("multitenant.fifo", &report, 4, 3);
/// assert_eq!(m["multitenant.fifo.shed_rate"], 0.25);
/// assert_eq!(m["multitenant.fifo.completed_jobs"], 3.0);
/// assert_eq!(m["multitenant.fifo.recovery_overhead_secs"], 50.0);
/// ```
pub fn service_fault_metrics(
    prefix: &str,
    report: &ServiceFaultReport,
    submitted_jobs: usize,
    completed_jobs: usize,
) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(format!("{prefix}.{name}"), value);
    };
    let rate = |count: u64| {
        if submitted_jobs == 0 {
            0.0
        } else {
            count as f64 / submitted_jobs as f64
        }
    };
    put("completed_jobs", completed_jobs as f64);
    put("shed_rate", rate(report.jobs_shed));
    put("abandoned_rate", rate(report.jobs_abandoned));
    put("job_crashes", report.job_crashes as f64);
    put("node_churn_events", (report.node_leaves + report.node_joins) as f64);
    put("lost_service_secs", report.lost_service_secs);
    put("recovery_overhead_secs", report.lost_service_secs + report.backoff_secs);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computed_values() {
        let responses: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = response_stats(&responses).unwrap();
        assert_eq!(stats.jobs, 100);
        assert_eq!(stats.mean_secs, 50.5);
        assert_eq!(stats.p50_secs, 50.0);
        assert_eq!(stats.p95_secs, 95.0);
        assert_eq!(stats.p99_secs, 99.0);
        assert_eq!(stats.max_secs, 100.0);
    }

    #[test]
    fn unfinished_jobs_nan_responses_are_excluded() {
        let stats = response_stats(&[f64::NAN, 4.0, f64::NAN, 8.0]).unwrap();
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.mean_secs, 6.0);
        assert!(response_stats(&[]).is_none());
        assert!(response_stats(&[f64::NAN, f64::INFINITY]).is_none());
    }

    #[test]
    fn metric_keys_carry_the_policy_prefix() {
        let m = multitenant_metrics("multitenant.processor_sharing", &[5.0, 15.0, 40.0]);
        assert_eq!(m.len(), 6);
        assert_eq!(m["multitenant.processor_sharing.jobs"], 3.0);
        assert_eq!(m["multitenant.processor_sharing.mean_response_secs"], 20.0);
        assert_eq!(m["multitenant.processor_sharing.max_response_secs"], 40.0);
        // The gate's suffix tolerances cover these names.
        let config = crate::GateConfig::headline_defaults();
        assert!(config.tolerance_for("multitenant.processor_sharing.mean_response_secs").is_some());
        assert!(config.tolerance_for("multitenant.processor_sharing.p95_response_secs").is_some());
        assert!(config.tolerance_for("multitenant.processor_sharing.jobs").is_none());
    }

    #[test]
    fn fault_metrics_cover_every_policy_prefix_under_the_chaos_gate() {
        let report = ServiceFaultReport {
            node_leaves: 2,
            node_joins: 1,
            jobs_shed: 1,
            jobs_abandoned: 1,
            job_crashes: 3,
            lost_service_secs: 100.0,
            backoff_secs: 60.0,
            ..Default::default()
        };
        let m = service_fault_metrics("multitenant.shortest_remaining", &report, 8, 5);
        assert_eq!(m.len(), 7);
        assert_eq!(m["multitenant.shortest_remaining.shed_rate"], 0.125);
        assert_eq!(m["multitenant.shortest_remaining.abandoned_rate"], 0.125);
        assert_eq!(m["multitenant.shortest_remaining.node_churn_events"], 3.0);
        assert_eq!(m["multitenant.shortest_remaining.recovery_overhead_secs"], 160.0);
        let config = crate::GateConfig::chaos_defaults();
        for key in m.keys() {
            let gated = config.tolerance_for(key).is_some();
            let informational = key.ends_with(".job_crashes")
                || key.ends_with(".node_churn_events")
                || key.ends_with(".lost_service_secs");
            assert_eq!(gated, !informational, "{key}");
        }
    }

    #[test]
    fn zero_submissions_yield_zero_rates() {
        let report = ServiceFaultReport::default();
        let m = service_fault_metrics("p", &report, 0, 0);
        assert_eq!(m["p.shed_rate"], 0.0);
        assert_eq!(m["p.abandoned_rate"], 0.0);
    }
}
