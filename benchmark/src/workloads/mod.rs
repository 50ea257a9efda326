//! The four workloads. Each stresses a different set of layers (see the
//! README for why each exists); all share one shape: a set-up that
//! generates inputs from the seed, then *passes* of fixed work the harness
//! repeats until the measuring time is used up.

pub mod dnn_tune;
pub mod reuse_persist;
pub mod shortepoch_stream;
pub mod trace_pipeline;

use pipetune::{TunerOptions, WorkloadSpec};

use crate::common::{BenchResult, Inner, PassOutput, Size};
use crate::probes::Units;
use crate::span::{Layer, Tracer};

/// Name and one-line reason of every workload, in `--all` order. The
/// reasons are the `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        dnn_tune::NAME,
        "compute-bound DNN tuning at the paper's tensor shapes: tensor+dnn do >90% of the work, the middleware almost none",
    ),
    (
        reuse_persist::NAME,
        "a warm rerun from a loaded cache file, a cold job that overflows it, a 30 MB save/load cycle: core cache reads, writes, evictions, persistence",
    ),
    (
        shortepoch_stream::NAME,
        "null-payload job streams under three policies, clean and chaos, planes on and off: the middleware itself (paper 7.3)",
    ),
    (
        trace_pipeline::NAME,
        "export, parse, report, diff, tsdb import and monitor replay of recorded traces: serialisation-bound, no training",
    ),
];

/// One workload: set up once per run (several times, for `setup_s`), then
/// passes.
pub trait Workload: Sized {
    /// Generates the inputs from `seed`, fills caches, records traces, and
    /// lets lazy initialisation finish. Correctness checks made during
    /// set-up are counted in `checks`.
    fn setup(seed: u64, size: Size, checks: &mut PassOutput) -> BenchResult<Self>;

    /// The tuner profile the workload's jobs run under: a traced run
    /// measures its per-job unit costs under the same one.
    fn options(&self) -> TunerOptions;

    /// One pass over input number `input`. Passes over the same input do
    /// identical work, so their simulated statistics must be identical too.
    /// `units` is present in a traced pass and lets it estimate the lower
    /// layers' work inside composite calls.
    fn pass(
        &mut self,
        input: u64,
        tr: &mut Tracer,
        units: Option<&Units>,
    ) -> BenchResult<PassOutput>;
}

/// Splits one DNN `PipeTune::run` call of `secs` seconds into the layers
/// that did the work: per-job middleware (measured on a null payload) and
/// its search part stay exact per job; `fresh` dataset generations go to
/// `data`; what remains is model arithmetic, divided between `dnn` and
/// `tensor` by the probes' tensor fraction for this model.
pub(crate) fn dnn_job_inner(
    units: &Units,
    spec: &WorkloadSpec,
    secs: f64,
    fresh: u64,
) -> Vec<Inner> {
    let search = units.search_job_s.min(secs);
    let middleware = units.null_job_s.max(search).min(secs);
    let data = (fresh as f64 * units.data_gen_s(spec.name())).min(secs - middleware);
    let payload = (secs - middleware - data).max(0.0);
    let tensor = payload * units.tensor_fraction(spec.model_name());
    let part = |layer, secs| Inner {
        owner: Layer::Core,
        layer,
        secs,
    };
    vec![
        part(Layer::Search, search),
        part(Layer::Data, data),
        part(Layer::Tensor, tensor),
        part(Layer::Dnn, payload - tensor),
    ]
}
