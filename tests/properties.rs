//! Property-based tests (proptest) on the core invariants the reproduction
//! rests on: cost-model monotonicity, scheduler accounting, clustering
//! invariants, storage algebra and tensor algebra.

use pipetune::SlotSchedule;
use pipetune_cluster::{CostModel, SystemConfig, WorkUnits};
use pipetune_clustering::KMeans;
use pipetune_search::{HyperBand, ParamSpec, SearchSpace, TrialReport, TrialScheduler};
use pipetune_tensor::Tensor;
use pipetune_tsdb::{Aggregate, Database, Point, Query};
use proptest::prelude::*;

fn work_strategy() -> impl Strategy<Value = WorkUnits> {
    (1e9..1e13f64, 1u64..5000, 1e8..5e10f64, 0.0..4.0f64).prop_map(|(flops, iterations, ws, mi)| {
        WorkUnits { flops, iterations, working_set_bytes: ws, memory_intensity: mi }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_model_durations_are_positive_and_finite(
        work in work_strategy(),
        cores in 1u32..64,
        mem in 1u32..128,
        contention in 1.0..8.0f64,
    ) {
        let d = CostModel::default().epoch_duration(
            &work,
            &SystemConfig::new(cores, mem),
            contention,
        );
        prop_assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn more_memory_never_slows_an_epoch(
        work in work_strategy(),
        cores in 1u32..32,
        mem in 1u32..64,
    ) {
        let m = CostModel::default();
        let tight = m.epoch_duration(&work, &SystemConfig::new(cores, mem), 1.0);
        let roomy = m.epoch_duration(&work, &SystemConfig::new(cores, mem * 2), 1.0);
        prop_assert!(roomy <= tight + 1e-9);
    }

    #[test]
    fn contention_monotonically_increases_duration(
        work in work_strategy(),
        c1 in 1.0..4.0f64,
        extra in 0.1..4.0f64,
    ) {
        let m = CostModel::default();
        let sys = SystemConfig::default();
        prop_assert!(m.epoch_duration(&work, &sys, c1 + extra) >= m.epoch_duration(&work, &sys, c1));
    }

    #[test]
    fn slot_schedule_conserves_work(
        durations in proptest::collection::vec(0.0..100.0f64, 0..40),
        slots in 1usize..8,
    ) {
        let (completions, makespan) = SlotSchedule::assign(&durations, slots);
        prop_assert_eq!(completions.len(), durations.len());
        let total: f64 = durations.iter().sum();
        // Makespan bounds: at least total/slots, at most total (+eps).
        prop_assert!(makespan <= total + 1e-9);
        prop_assert!(makespan >= total / slots as f64 - 1e-9);
        for c in &completions {
            prop_assert!(*c <= makespan + 1e-9);
        }
    }

    #[test]
    fn kmeans_labels_point_to_nearest_centroid(
        seed in 0u64..1000,
        spread in 0.01..0.5f64,
    ) {
        // Two seeded blobs.
        let mut data = Vec::new();
        for i in 0..12 {
            let j = f64::from(i) * spread / 12.0;
            data.push(vec![0.0 + j, j]);
            data.push(vec![8.0 - j, 8.0 + j]);
        }
        let model = KMeans::new(2).fit(&data, seed).unwrap();
        for (p, &l) in data.iter().zip(model.labels()) {
            let (nearest, _) = model.predict(p);
            prop_assert_eq!(nearest, l);
        }
        // Inertia is the sum of member distances — non-negative and finite.
        prop_assert!(model.inertia().is_finite() && model.inertia() >= 0.0);
    }

    #[test]
    fn hyperband_issues_each_trial_at_most_r_max_epochs(
        r_max in 1u32..28,
        seed in 0u64..500,
    ) {
        let space = SearchSpace::new(vec![ParamSpec::float_range("x", 0.0, 1.0, false)]);
        let mut hb = HyperBand::new(space, r_max, 3, seed);
        let mut per_trial: std::collections::HashMap<u64, u64> = Default::default();
        let mut guard = 0;
        while !hb.is_finished() {
            for r in hb.next_trials() {
                *per_trial.entry(r.id.0).or_default() += u64::from(r.epochs);
                hb.report(TrialReport {
                    id: r.id,
                    score: r.config["x"].as_f64(),
                    epochs_run: r.epochs,
                });
            }
            guard += 1;
            prop_assert!(guard < 10_000, "non-terminating");
        }
        for (&id, &epochs) in &per_trial {
            prop_assert!(
                epochs <= u64::from(r_max) + 1,
                "trial {} ran {} epochs > R {}",
                id,
                epochs,
                r_max
            );
        }
        let issued: u64 = per_trial.values().sum();
        prop_assert_eq!(issued, hb.epochs_issued());
    }

    #[test]
    fn tsdb_count_aggregate_matches_query_length(
        n in 0usize..50,
        threshold in 0u64..50,
    ) {
        let db = Database::new();
        for i in 0..n as u64 {
            db.write(Point::new("m", i).field("x", i as f64)).unwrap();
        }
        let q = Query::measurement("m").from_us(threshold);
        let rows = db.query(&q).unwrap();
        let count = db.aggregate(&q, "x", Aggregate::Count).unwrap().unwrap_or(0.0);
        prop_assert_eq!(rows.len() as f64, count);
    }

    #[test]
    fn tensor_matmul_distributes_over_addition(
        seed in 0u64..200,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let c = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn tensor_transpose_preserves_matmul(
        seed in 0u64..200,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
        // (AB)^T = B^T A^T
        let ab_t = a.matmul(&b).unwrap().transpose().unwrap();
        let bt_at = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }
}
