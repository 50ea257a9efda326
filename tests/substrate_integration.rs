//! Integration tests across the substrate crates: datasets feed models,
//! models feed the profiler, profiles feed the clustering — the whole chain
//! under the middleware's feet.

use pipetune::{EpochWorkload, ExperimentEnv, HyperParams, WorkloadSpec};
use pipetune_clustering::KMeans;
use pipetune_data::{mnist_like, ImageSpec};
use pipetune_dnn::{LeNet5, Model, TrainConfig};
use pipetune_energy::PowerModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn real_training_improves_heldout_accuracy_through_the_stack() {
    // data → dnn, full fidelity (no middleware shortcuts).
    let spec = ImageSpec { train: 200, test: 64, ..ImageSpec::default() };
    let (train, test) = mnist_like(&spec, 77).expect("datasets generate");
    let mut rng = StdRng::seed_from_u64(77);
    let mut model = LeNet5::with_input_size(16, 10, 0.1, &mut rng).expect("model builds");
    let before = model.evaluate(&test).expect("eval");
    let cfg = TrainConfig { batch_size: 32, learning_rate: 0.02, ..TrainConfig::default() };
    for _ in 0..8 {
        model.train_epoch(&train, &cfg, &mut rng).expect("epoch");
    }
    let after = model.evaluate(&test).expect("eval");
    assert!(after > before + 0.2, "training must actually learn: {before} → {after}");
}

#[test]
fn profiles_of_the_seven_workloads_cluster_by_family() {
    // workload → signature → perfmon → clustering: the Fig. 8 chain, at the
    // granularity of all seven workloads with k = 3 (one per job type).
    let env = ExperimentEnv::distributed(1100);
    let mut rng = StdRng::seed_from_u64(1100);
    let hp = HyperParams::default();
    let mut features = Vec::new();
    let mut types = Vec::new();
    for spec in WorkloadSpec::all_type12().into_iter().chain(WorkloadSpec::all_type3()) {
        let w = spec.with_scale(0.2).instantiate(&hp, 9).expect("instantiates");
        let dur = env.cost.epoch_duration(&w.work_units(), &env.default_system, 1.0);
        for _ in 0..3 {
            let p =
                env.profiler.profile_epoch(&w.signature(), env.default_system.cores, dur, &mut rng);
            features.push(p.features());
            types.push(spec.job_type());
        }
    }
    let model = KMeans::new(3).fit(&features, 5).expect("fits");
    // Each repetition of a workload must land in one cluster (profiles are
    // repeatable), and Type-I and Type-II must not share a cluster.
    for chunk in model.labels().chunks(3) {
        assert!(chunk.windows(2).all(|w| w[0] == w[1]), "repetitions split: {chunk:?}");
    }
    let label_of = |t: pipetune::JobType| -> Vec<usize> {
        model.labels().iter().zip(&types).filter(|(_, ty)| **ty == t).map(|(&l, _)| l).collect()
    };
    let t1 = label_of(pipetune::JobType::TypeI);
    let t2 = label_of(pipetune::JobType::TypeII);
    assert!(!t1.is_empty() && !t2.is_empty());
    assert!(t1.iter().all(|l| !t2.contains(l)), "Type-I {t1:?} and Type-II {t2:?} must separate");
}

#[test]
fn power_model_is_consistent_with_cluster_attribution() {
    let env = ExperimentEnv::distributed(1102);
    let pm = PowerModel::default();
    // The trial's cluster power is the idle floor of all nodes plus the
    // dynamic draw of its own cores.
    let p4 = env.trial_power_watts(4);
    let p16 = env.trial_power_watts(16);
    let idle_floor = pm.idle_watts * env.cluster.nodes.len() as f64;
    assert!(p4 > idle_floor);
    assert!((p16 - p4) - (pm.power_watts(16, 1.0) - pm.power_watts(4, 1.0)).abs() < 1e-9);
}

#[test]
fn workload_instances_are_reproducible_across_instantiations() {
    let hp = HyperParams { batch_size: 64, learning_rate: 0.02, ..HyperParams::default() };
    for spec in [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20(), WorkloadSpec::bfs()] {
        let mut a = spec.with_scale(0.2).instantiate(&hp, 123).expect("a");
        let mut b = spec.with_scale(0.2).instantiate(&hp, 123).expect("b");
        let oa = a.run_epoch().expect("a epoch");
        let ob = b.run_epoch().expect("b epoch");
        assert_eq!(oa, ob, "{} must be reproducible", spec.name());
        assert_eq!(a.accuracy().expect("a"), b.accuracy().expect("b"));
    }
}

#[test]
fn handle_trio_exposes_uniform_states() {
    use pipetune::prelude::{EpochCacheHandle, MonitorHandle, TelemetryHandle};
    // The unified vocabulary: every handle has `disabled()`, an
    // `enabled()`/`with_config` pair, and `is_enabled()`.
    assert!(!TelemetryHandle::disabled().is_enabled());
    assert!(TelemetryHandle::enabled().is_enabled());
    assert!(!MonitorHandle::disabled().is_enabled());
    assert!(MonitorHandle::enabled().is_enabled());
    assert!(!EpochCacheHandle::disabled().is_enabled());
    assert!(EpochCacheHandle::enabled().is_enabled());
}
