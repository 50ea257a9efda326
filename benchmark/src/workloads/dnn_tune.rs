//! `dnn_tune`: PipeTune tuning sessions over the four DNN workloads.

use pipetune::prelude::*;

use super::{dnn_job_inner, Workload};
use crate::common::{base_env, check_scores, subseed, timed, BenchResult, PassOutput, Size};
use crate::probes::Units;
use crate::span::{Layer, Tracer};

pub const NAME: &str = "dnn_tune";

pub struct DnnTune {
    seed: u64,
    options: TunerOptions,
    specs: Vec<WorkloadSpec>,
}

impl DnnTune {
    /// One tuning session: a tuner with a cold ground truth runs every
    /// spec once, as one PipeTune deployment would, sharing what it learns.
    fn session(
        &self,
        options: TunerOptions,
        env_seed: u64,
        tr: &mut Tracer,
        units: Option<&Units>,
    ) -> BenchResult<PassOutput> {
        let mut out = PassOutput::default();
        let env = base_env(env_seed).build()?;
        let mut tuner = PipeTune::new(options);
        let (session_secs, jobs) = timed(|| -> BenchResult<()> {
            for spec in &self.specs {
                tr.next_op();
                let (secs, outcome) =
                    timed(|| tr.call(Layer::Core, "core.tuner_run", || tuner.run(&env, spec)));
                let outcome = outcome?;
                out.attempt(spec.name(), check_scores(&outcome));
                out.epochs += outcome.epochs_total;
                out.jobs += 1;
                out.sim.add_outcome(&outcome);
                if let Some(units) = units {
                    out.inner
                        .extend(dnn_job_inner(units, spec, secs, units.fresh_trials));
                }
            }
            Ok(())
        });
        jobs?;
        out.ops_ms.push(session_secs * 1e3);
        Ok(out)
    }
}

impl Workload for DnnTune {
    /// The inputs are seeds, so set-up is the warm-up: one minimal session
    /// over every spec, which sizes the thread-local kernel workspaces and
    /// the allocator's arenas before anything is timed.
    fn setup(seed: u64, size: Size, checks: &mut PassOutput) -> BenchResult<Self> {
        let minimal = TunerOptions {
            r_max: 3,
            epochs_range: (1, 3),
            ..TunerOptions::fast()
        };
        let this = DnnTune {
            seed,
            // The paper's shapes (scale 1.0: 256 / 240 / 160 examples a
            // trial) under a third of its HyperBand budget: R = 9 makes a
            // four-job session 2.5 s instead of 12 s, so one run holds
            // several sessions with hyperparameter draws of their own and
            // the run-to-run spread stays inside the bounds.
            options: size.pick(
                TunerOptions {
                    r_max: 9,
                    epochs_range: (3, 9),
                    ..TunerOptions::paper()
                },
                minimal,
            ),
            specs: size.pick(
                WorkloadSpec::all_type12(),
                vec![WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()],
            ),
        };
        let warm = this.session(minimal, seed, &mut Tracer::new(false), None)?;
        checks.attempted += warm.attempted;
        checks.failed += warm.failed;
        checks.failures.extend(warm.failures);
        Ok(this)
    }

    fn options(&self) -> TunerOptions {
        self.options
    }

    /// One session under an environment seed of the input's own. One
    /// operation is one session.
    fn pass(
        &mut self,
        input: u64,
        tr: &mut Tracer,
        units: Option<&Units>,
    ) -> BenchResult<PassOutput> {
        self.session(self.options, subseed(self.seed, input), tr, units)
    }
}
