//! `shortepoch_stream`: Poisson streams of null-payload kernel jobs through
//! the tuning service, observability planes live, beside the same streams
//! with the planes off.

use pipetune::prelude::*;
use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
use pipetune_monitor::{MonitorConfig, MonitorHandle};
use pipetune_service::{
    JobOutcome, JobSubmission, SchedulingPolicy, ServiceConfig, ServiceOutcome, TuningService,
};
use pipetune_telemetry::TelemetryHandle;

use super::Workload;
use crate::common::{
    base_env, check_scores, subseed, timed, BenchResult, Inner, PassOutput, SimDigest, Size,
};
use crate::probes::Units;
use crate::span::{Layer, Tracer};

pub const NAME: &str = "shortepoch_stream";

/// Mean inter-arrival of 400 simulated seconds keeps several jobs in the
/// system at once, so the policies really differ.
const ARRIVAL_RATE: f64 = 1.0 / 400.0;
/// Chaos streams shed jobs that miss this deadline, simulated seconds.
const DEADLINE_SECS: f64 = 6000.0;

/// Which observability planes a stream runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planes {
    Off,
    TelemetryOnly,
    On,
}

/// The options every stream job is tuned with: the paper's HyperBand budget
/// over kernels shrunk until an epoch is about a microsecond of real work.
pub fn stream_options(size: Size) -> TunerOptions {
    match size {
        Size::Full => TunerOptions {
            scale: 0.2,
            ..TunerOptions::paper()
        },
        Size::Quick => TunerOptions {
            scale: 0.2,
            ..TunerOptions::fast()
        },
    }
}

/// `jobs` submissions alternating `jacobi` / `hotspot`, Poisson arrivals.
pub fn submissions(arrival_seed: u64, jobs: usize) -> Vec<JobSubmission> {
    let specs = [WorkloadSpec::jacobi(), WorkloadSpec::hotspot()];
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, arrival_seed);
    (0..jobs)
        .map(|i| {
            JobSubmission::new(
                arrivals.next_arrival().as_secs_f64(),
                specs[i % specs.len()],
            )
        })
        .collect()
}

/// What one stream produced.
pub struct StreamRun {
    pub outcome: ServiceOutcome,
    pub telemetry: TelemetryHandle,
    pub alerts: u64,
}

/// Runs one stream to completion, including the monitor's final scan.
pub fn run_stream(
    seed: u64,
    subs: &[JobSubmission],
    policy: SchedulingPolicy,
    chaos: bool,
    planes: Planes,
    options: &TunerOptions,
) -> BenchResult<StreamRun> {
    let telemetry = match planes {
        Planes::Off => TelemetryHandle::disabled(),
        _ => TelemetryHandle::enabled(),
    };
    let monitor = match planes {
        Planes::On => MonitorHandle::with_config(&MonitorConfig::standard()),
        _ => MonitorHandle::disabled(),
    };
    let env = base_env(seed)
        .telemetry(telemetry.clone())
        .monitor(monitor.clone())
        .build()?;
    let mut config = ServiceConfig::default().with_policy(policy);
    if chaos {
        config = config
            .with_service_faults(ServiceFaultPlan::mixed(seed))
            .with_deadline(DEADLINE_SECS);
    }
    let outcome = TuningService::new(config).run(&env, subs, options)?;
    let alerts = monitor
        .finish(&telemetry)
        .map_or(0, |timeline| timeline.len() as u64);
    Ok(StreamRun {
        outcome,
        telemetry,
        alerts,
    })
}

/// Every submission must end in exactly one typed outcome, and every
/// completed job must carry finite scores in `[0, 1]`.
pub fn check_stream(outcome: &ServiceOutcome, submitted: usize) -> Result<(), String> {
    if outcome.jobs.len() != submitted {
        return Err(format!(
            "{} records for {submitted} submissions",
            outcome.jobs.len()
        ));
    }
    for (i, record) in outcome.jobs.iter().enumerate() {
        if record.job != i {
            return Err(format!("record {i} belongs to job {}", record.job));
        }
        match (&record.status, &record.outcome) {
            (JobOutcome::Completed, Some(result)) => check_scores(result)?,
            (JobOutcome::Completed, None) => {
                return Err(format!("job {i} completed without a result"))
            }
            _ => {}
        }
    }
    Ok(())
}

pub struct ShortepochStream {
    seed: u64,
    options: TunerOptions,
    jobs: usize,
    policies: Vec<SchedulingPolicy>,
}

/// Adds a stream's simulated statistics to the digest.
fn digest_stream(sim: &mut SimDigest, outcome: &ServiceOutcome) {
    for record in &outcome.jobs {
        if let (JobOutcome::Completed, Some(result)) = (&record.status, &record.outcome) {
            sim.add_outcome(result);
        }
    }
}

/// Splits one `TuningService::run` call into the layers that did the work
/// inside it: kernel epochs (exact count times the probed epoch cost),
/// per-job search and core middleware (probed on a stand-alone null job),
/// and, for a planes-on stream, the time its planes-off twin did not need.
fn stream_inner(
    units: &Units,
    outcome: &ServiceOutcome,
    secs: f64,
    planes_secs: f64,
) -> Vec<Inner> {
    let mut kernels = 0.0;
    let mut jobs = 0.0;
    for record in &outcome.jobs {
        if let Some(result) = &record.outcome {
            kernels += result.epochs_total as f64 * units.kernel_epoch_s(record.workload);
            jobs += f64::from(record.attempts.max(1));
        }
    }
    let planes = planes_secs.clamp(0.0, secs);
    let budget = secs - planes;
    let kernels = kernels.min(budget);
    let search = (jobs * units.search_job_s).min(budget - kernels);
    let core =
        (jobs * (units.null_job_s - units.search_job_s).max(0.0)).min(budget - kernels - search);
    let telemetry = planes * units.telemetry_fraction_of_planes;
    let part = |layer, secs| Inner {
        owner: Layer::Service,
        layer,
        secs,
    };
    vec![
        part(Layer::Kernels, kernels),
        part(Layer::Search, search),
        part(Layer::Core, core),
        part(Layer::Telemetry, telemetry),
        part(Layer::Monitor, planes - telemetry),
    ]
}

impl Workload for ShortepochStream {
    /// Set-up runs one warm-up stream per policy with the planes on, so
    /// lazy initialisation is paid before timing. The inputs themselves
    /// (arrival times) cost microseconds and are drawn inside each pass.
    fn setup(seed: u64, size: Size, checks: &mut PassOutput) -> BenchResult<Self> {
        let this = ShortepochStream {
            seed,
            options: stream_options(size),
            jobs: size.pick(60, 12),
            policies: size.pick(
                SchedulingPolicy::ALL.to_vec(),
                vec![SchedulingPolicy::ALL[0]],
            ),
        };
        let subs = submissions(subseed(seed, 0), this.jobs);
        for &policy in &this.policies {
            let warm = run_stream(seed, &subs, policy, true, Planes::On, &this.options)?;
            checks.attempt("warm-up stream", check_stream(&warm.outcome, subs.len()));
        }
        Ok(this)
    }

    fn options(&self) -> TunerOptions {
        self.options
    }

    /// One round under arrival and environment seeds of the input's own:
    /// every policy, clean and chaos, each stream with the planes on and
    /// then off. One operation is one planes-on stream.
    fn pass(
        &mut self,
        input: u64,
        tr: &mut Tracer,
        units: Option<&Units>,
    ) -> BenchResult<PassOutput> {
        let mut out = PassOutput::default();
        let seed = subseed(self.seed, input);
        let subs = tr.call(Layer::Bench, "bench.stream_inputs", || {
            submissions(seed, self.jobs)
        });
        let stream =
            |tr: &mut Tracer, name, policy, chaos, planes| -> BenchResult<(f64, StreamRun)> {
                tr.next_op();
                let (secs, run) = timed(|| {
                    tr.call(Layer::Service, name, || {
                        run_stream(seed, &subs, policy, chaos, planes, &self.options)
                    })
                });
                Ok((secs, run?))
            };
        let mut on_secs = 0.0;
        for &policy in &self.policies {
            let name = match policy {
                SchedulingPolicy::Fifo => "service.run.fifo",
                SchedulingPolicy::ProcessorSharing => "service.run.processor_sharing",
                SchedulingPolicy::ShortestRemainingService => "service.run.shortest_remaining",
            };
            for chaos in [false, true] {
                let (secs, on) = stream(tr, name, policy, chaos, Planes::On)?;
                let (off_secs, off) =
                    stream(tr, "service.run.planes_off", policy, chaos, Planes::Off)?;
                if let Some(units) = units {
                    out.inner
                        .extend(stream_inner(units, &on.outcome, secs, secs - off_secs));
                    out.inner
                        .extend(stream_inner(units, &off.outcome, off_secs, 0.0));
                }
                out.ops_ms.push(secs * 1e3);
                on_secs += secs;
                out.attempt(name, check_stream(&on.outcome, subs.len()));
                out.attempt(
                    "service.run.planes_off",
                    check_stream(&off.outcome, subs.len()),
                );
                out.jobs += subs.len() as u64;
                digest_stream(&mut out.sim, &on.outcome);
                out.sim.trace_records += on
                    .telemetry
                    .visit(|spans, events| (spans.len() + events.len()) as u64)
                    .unwrap_or(0);
                if chaos {
                    let completed = on
                        .outcome
                        .jobs
                        .iter()
                        .filter(|r| r.status == JobOutcome::Completed)
                        .count();
                    out.sample(
                        "chaos_completed_ratio",
                        completed as f64 / subs.len() as f64,
                    );
                    out.sample(
                        "chaos_resubmissions",
                        on.outcome.service_fault_report.resubmissions as f64,
                    );
                }
                out.sample("stream_on_s", secs);
                out.sample("stream_off_s", off_secs);
            }
        }
        out.epochs = out.sim.epochs_total;
        out.work_secs = Some(on_secs);
        Ok(out)
    }
}
