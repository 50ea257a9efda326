//! Every scheduler issues the `(id, config, epochs)` sequence it issued
//! before `TrialRequest` began sharing its configuration instead of
//! deep-copying it per rung.
//!
//! Each scheduler runs to completion over 10 seeds against a score that is
//! a pure function of the request, and every request it issues is folded —
//! id, `Debug` of the configuration (an `Arc<Config>` prints as its
//! `Config`), epochs — into one FNV-1a digest per scheduler. The pinned
//! digests were produced by this file at the commit before the change,
//! where `config` was an owned `BTreeMap`.

use pipetune_search::{
    GridSearch, HyperBand, ParamSpec, RandomSearch, SearchSpace, TrialReport, TrialRequest,
    TrialScheduler,
};

const SEEDS: u64 = 10;

fn fnv1a(digest: &mut u64, text: &str) {
    for byte in text.bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A mixed space: a log-scaled range, a linear range, two choice lists.
fn space() -> SearchSpace {
    SearchSpace::new(vec![
        ParamSpec::float_range("learning_rate", 0.001, 0.1, true),
        ParamSpec::float_range("dropout", 0.0, 0.5, false),
        ParamSpec::int_choice("batch_size", &[32, 64, 256, 1024]),
        ParamSpec::int_choice("embedding_dim", &[50, 100, 200]),
    ])
}

fn line(request: &TrialRequest) -> String {
    format!("{}|{:?}|{}\n", request.id, request.config, request.epochs)
}

/// A score in `[0, 1)` that depends on nothing but the request and the
/// seed.
fn score(request: &TrialRequest, seed: u64) -> f64 {
    let mut digest = 0xCBF2_9CE4_8422_2325 ^ seed;
    fnv1a(&mut digest, &line(request));
    (digest >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs `scheduler` dry and folds every request it issued into `digest`.
fn drive(mut scheduler: impl TrialScheduler, seed: u64, digest: &mut u64) {
    let mut issued = 0usize;
    let mut idle_rounds = 0;
    while !scheduler.is_finished() {
        let requests = scheduler.next_trials();
        idle_rounds = if requests.is_empty() { idle_rounds + 1 } else { 0 };
        assert!(idle_rounds < 3, "scheduler stalled after {issued} requests");
        for request in requests {
            issued += 1;
            fnv1a(digest, &line(&request));
            let report = TrialReport {
                id: request.id,
                score: score(&request, seed),
                epochs_run: request.epochs,
            };
            scheduler.report(report);
        }
    }
    assert!(issued > 0, "nothing issued");
    fnv1a(digest, &format!("epochs {} best {:?}\n", scheduler.epochs_issued(), scheduler.best()));
}

/// The digest of `build(seed)` driven dry for every seed.
fn digest_over_seeds<S: TrialScheduler>(build: impl Fn(u64) -> S) -> u64 {
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for seed in 0..SEEDS {
        drive(build(seed), seed, &mut digest);
    }
    digest
}

#[test]
fn every_scheduler_issues_the_sequence_it_issued_before() {
    let digests = [
        ("hyperband", digest_over_seeds(|seed| HyperBand::new(space(), 27, 3, seed))),
        ("random", digest_over_seeds(|seed| RandomSearch::new(space(), 12, 5, seed))),
        ("grid", digest_over_seeds(|seed| GridSearch::new(space(), 2 + (seed % 2) as usize, 4))),
    ];
    let pinned = [
        ("hyperband", 0x3001_22F0_5C90_0D16u64),
        ("random", 0xA20E_2406_1203_8B37),
        ("grid", 0xD931_DFF5_9F39_79CC),
    ];
    for (name, digest) in &digests {
        println!("{name}: {digest:#018X}");
    }
    assert_eq!(digests, pinned);
}
