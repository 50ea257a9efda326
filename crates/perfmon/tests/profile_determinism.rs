//! The profiler's index-resolved paths against their frozen references.
//!
//! `mod frozen` is the event model as it stood while every event was found
//! by name at run time — `event_index` a linear scan of `EVENT_NAMES`,
//! `true_counts` 58 `set("name", value)` calls, `profile_epoch` a
//! `FIXED_EVENTS.contains(&name)` per event, `features()` two more scans —
//! copied verbatim (the `kernel_determinism.rs` pattern) with the two
//! adaptations a copy outside the crate forces: methods become functions
//! of a `&Profiler`, and profiles are plain count vectors.
//!
//! Pinned over 1 200 seeded `(signature, cores, seconds)` draws:
//! `profile_epoch`, `try_profile_epoch`, `try_sample_epoch(..)
//! .scale_to_epoch()` and `features()` equal by `to_bits`, **and** the RNG
//! left in the same state — the noise stream a trial draws after its
//! profile is part of every committed artefact.

use pipetune_perfmon::{event_index, Profiler, WorkloadSignature, EVENT_NAMES, NUM_EVENTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod frozen {
    use pipetune_perfmon::{Profiler, WorkloadSignature, EVENT_NAMES, NUM_EVENTS};
    use rand::Rng;

    /// Index of an event name, if it is one of the 58.
    pub fn event_index(name: &str) -> Option<usize> {
        EVENT_NAMES.iter().position(|&n| n == name)
    }

    /// Events served by fixed counters — measured at full coverage.
    const FIXED_EVENTS: [&str; 6] = [
        "instructions",
        "cpu-cycles",
        "bus-cycles",
        "cpu/instructions/",
        "cpu/cpu-cycles/",
        "cpu/bus-cycles/",
    ];

    /// Indices of the fixed-counter events (used by the sampling scheduler).
    fn fixed_event_indices() -> Vec<usize> {
        FIXED_EVENTS.iter().filter_map(|n| event_index(n)).collect()
    }

    /// `Profiler::true_counts`.
    pub fn true_counts(
        p: &Profiler,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
    ) -> Vec<f64> {
        let flops = sig.flops_per_epoch.max(0.0);
        let mi = sig.memory_intensity.max(0.0);
        let br = sig.branch_ratio.clamp(0.0, 1.0);
        let ws = sig.working_set_bytes.max(0.0);

        let instr = flops * 1.3 + 1e6;
        let ipc = 2.2 / (1.0 + 0.8 * mi);
        let cycles = instr / ipc;
        let branches = instr * br;
        let branch_misses = branches * (0.01 + 0.05 * br);
        let l1_loads = instr * (0.25 + 0.30 * mi);
        let l1_stores = l1_loads * 0.4;
        // L1 miss ratio saturates with working-set growth past 32 KiB.
        let l1_span = ((1.0 + ws / 32e3).ln() / (1.0f64 + 1e6).ln()).min(1.0);
        let l1_load_misses = l1_loads * (0.02 + 0.06 * l1_span);
        let l1_icache_misses = instr * 0.0005;
        let llc_loads = l1_load_misses * 0.5;
        let llc_stores = l1_stores * 0.01;
        let llc_miss_ratio = (ws / p.llc_bytes).clamp(0.02, 0.9);
        let llc_load_misses = llc_loads * llc_miss_ratio;
        let llc_store_misses = llc_stores * llc_miss_ratio;
        let dtlb_loads = l1_loads;
        let tlb_span = ((1.0 + ws / 2e6).ln() / (1.0f64 + 1e5).ln()).min(1.0);
        let dtlb_load_misses = dtlb_loads * 0.0002 * (1.0 + 20.0 * tlb_span);
        let dtlb_stores = l1_stores;
        let dtlb_store_misses = dtlb_stores * 0.0001 * (1.0 + 20.0 * tlb_span);
        let itlb_loads = instr * 0.02;
        let itlb_misses = itlb_loads * 0.0005;
        let cache_references = llc_loads + llc_stores;
        let cache_misses = llc_load_misses + llc_store_misses;
        let bus_cycles = cycles * 0.03;
        let total_slots = cycles * 4.0;
        let slots_issued = instr * 1.15;
        let slots_retired = instr;
        let fetch_bubbles = total_slots * 0.05 * (1.0 + mi);
        let recovery_bubbles = branch_misses * 20.0;
        let numa_fraction = if cores > 8 { 0.30 } else { 0.05 };
        let node_loads = llc_load_misses * numa_fraction;
        let node_load_misses = node_loads * 0.3;
        let node_stores = llc_store_misses * numa_fraction;
        let node_store_misses = node_stores * 0.3;
        // One reference clock: TSC ticks measure wall duration of the epoch.
        let tsc = p.freq_hz * epoch_secs.max(0.0);

        let mut c = vec![0.0f64; NUM_EVENTS];
        let mut set = |name: &str, v: f64| {
            let i = event_index(name).expect("known event");
            c[i] = v;
        };
        set("L1-dcache-load-misses", l1_load_misses);
        set("L1-dcache-loads", l1_loads);
        set("L1-dcache-stores", l1_stores);
        set("L1-icache-load-misses", l1_icache_misses);
        set("LLC-load-misses", llc_load_misses);
        set("LLC-loads", llc_loads);
        set("LLC-store-misses", llc_store_misses);
        set("LLC-stores", llc_stores);
        set("branch-load-misses", branch_misses * 0.8);
        set("branch-loads", branches * 0.9);
        set("branch-misses", branch_misses);
        set("branches", branches);
        set("bus-cycles", bus_cycles);
        set("cache-misses", cache_misses);
        set("cache-references", cache_references);
        set("cpu-cycles", cycles);
        set("cpu/branch-instructions/", branches);
        set("cpu/branch-misses/", branch_misses);
        set("cpu/bus-cycles/", bus_cycles);
        set("cpu/cache-misses/", cache_misses);
        set("cpu/cache-references/", cache_references);
        set("cpu/cpu-cycles/", cycles);
        set("cpu/cycles-ct/", cycles * 0.001);
        set("cpu/cycles-t/", cycles * 0.001);
        set("cpu/el-abort/", 10.0);
        set("cpu/el-capacity/", 10.0);
        set("cpu/el-commit/", 10.0);
        set("cpu/el-conflict/", 10.0);
        set("cpu/el-start/", 20.0);
        set("cpu/instructions/", instr);
        set("cpu/mem-loads/", l1_loads * 0.001);
        set("cpu/mem-stores/", l1_stores * 0.001);
        set("cpu/topdown-fetch-bubbles/", fetch_bubbles);
        set("cpu/topdown-recovery-bubbles/", recovery_bubbles);
        set("cpu/topdown-slots-issued/", slots_issued);
        set("cpu/topdown-slots-retired/", slots_retired);
        set("cpu/topdown-total-slots/", total_slots);
        set("cpu/tx-abort/", 5.0);
        set("cpu/tx-capacity/", 5.0);
        set("cpu/tx-commit/", 5.0);
        set("cpu/tx-conflict/", 5.0);
        set("cpu/tx-start/", 10.0);
        set("dTLB-load-misses", dtlb_load_misses);
        set("dTLB-loads", dtlb_loads);
        set("dTLB-store-misses", dtlb_store_misses);
        set("dTLB-stores", dtlb_stores);
        set("iTLB-load-misses", itlb_misses);
        set("iTLB-loads", itlb_loads);
        set("instructions", instr);
        set("msr/aperf/", cycles);
        set("msr/mperf/", cycles * 0.98);
        set("msr/pperf/", instr * 0.95);
        set("msr/smi/", 0.0);
        set("msr/tsc/", tsc);
        set("node-load-misses", node_load_misses);
        set("node-loads", node_loads);
        set("node-store-misses", node_store_misses);
        set("node-stores", node_stores);
        c
    }

    /// `Profiler::profile_epoch`, returning the profile's counts.
    pub fn profile_epoch<R: Rng>(
        p: &Profiler,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        let truth = true_counts(p, sig, cores, epoch_secs);
        let n_multiplexed = NUM_EVENTS - FIXED_EVENTS.len();
        let coverage = (p.generic_counters as f64 / n_multiplexed as f64).clamp(0.0, 1.0);
        EVENT_NAMES
            .iter()
            .zip(&truth)
            .map(|(&name, &t)| {
                let fixed = FIXED_EVENTS.contains(&name);
                let sigma = if fixed {
                    p.base_noise
                } else {
                    p.base_noise + p.multiplex_noise * (1.0 - coverage).sqrt()
                };
                // Two-uniform approximation of Gaussian multiplicative noise.
                let g = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
                let mut v = t * (1.0 + sigma * g * 1.7);
                if !fixed && rng.gen::<f64>() < p.blind_spot_prob {
                    // Burst missed: scaling extrapolates from a quiet window.
                    v *= rng.gen_range(0.6..1.4);
                }
                v.max(0.0)
            })
            .collect()
    }

    /// `Profiler::sample_epoch(..).scale_to_epoch()`, returning the
    /// reconstructed profile's counts.
    pub fn sample_and_scale<R: Rng>(
        p: &Profiler,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        let truth = true_counts(p, sig, cores, epoch_secs);
        let n_windows = (epoch_secs.max(1.0).floor() as usize).max(1);
        let fixed: Vec<usize> = fixed_event_indices();
        let generic: Vec<usize> = (0..NUM_EVENTS).filter(|i| !fixed.contains(i)).collect();
        let per_window = p.generic_counters.max(1);
        let mut windows: Vec<(Vec<usize>, Vec<f64>)> = Vec::with_capacity(n_windows);
        let mut cursor = 0usize;
        for _ in 0..n_windows {
            let mut measured = fixed.clone();
            for _ in 0..per_window {
                measured.push(generic[cursor % generic.len()]);
                cursor += 1;
            }
            let raw = measured
                .iter()
                .map(|&e| {
                    // Per-window share of the epoch total, with burst noise.
                    let g = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
                    (truth[e] / n_windows as f64 * (1.0 + 0.1 * g * 1.7)).max(0.0)
                })
                .collect();
            windows.push((measured, raw));
        }
        // `SampleTrace::scale_to_epoch`.
        let mut raw_sum = vec![0.0f64; NUM_EVENTS];
        let mut seen = vec![0usize; NUM_EVENTS];
        for (measured, raw) in &windows {
            for (&e, &r) in measured.iter().zip(raw) {
                raw_sum[e] += r;
                seen[e] += 1;
            }
        }
        let n = windows.len().max(1);
        raw_sum
            .iter()
            .zip(&seen)
            .map(|(&sum, &s)| if s == 0 { 0.0 } else { sum * (n as f64 / s as f64) })
            .collect()
    }

    /// `EpochProfile::features` over a profile's counts.
    pub fn features(counts: &[f64]) -> Vec<f64> {
        const INSTR_WEIGHT: f64 = 2.0;
        const TSC_WEIGHT: f64 = 3.0;
        let instr_idx = event_index("instructions").expect("known event");
        let tsc_idx = event_index("msr/tsc/").expect("known event");
        let instr = counts[instr_idx].max(1.0);
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i == instr_idx {
                    INSTR_WEIGHT * (1.0 + c.max(0.0)).log10()
                } else if i == tsc_idx {
                    TSC_WEIGHT * (1.0 + c.max(0.0)).log10()
                } else {
                    ((c.max(0.0) + 1.0) / instr).log10()
                }
            })
            .collect()
    }
}

const DRAWS: u64 = 1200;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A profiler, a signature, a core count and an epoch length spanning the
/// regimes the workloads produce: kernel to DNN scale, one socket and two,
/// sub-second epochs to hours, and the degenerate corners (`0.0`, negative)
/// the model clamps.
fn draw(seed: u64) -> (Profiler, WorkloadSignature, u32, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut magnitude = |lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
    let sig = WorkloadSignature {
        flops_per_epoch: magnitude(3.0, 13.0),
        working_set_bytes: magnitude(3.0, 10.5),
        memory_intensity: magnitude(-2.0, 1.0),
        branch_ratio: rng.gen_range(-0.1..1.1),
    };
    let profiler = Profiler {
        generic_counters: rng.gen_range(0..9usize),
        blind_spot_prob: [0.0, 0.02, 0.5][rng.gen_range(0..3usize)],
        ..Profiler::default()
    };
    let cores = [1, 4, 8, 9, 16, 32][rng.gen_range(0..6usize)];
    let secs = match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => -3.0,
        2 => rng.gen_range(0.0..1.0),
        _ => 10f64.powf(rng.gen_range(0.0..2.6)),
    };
    (profiler, sig, cores, secs)
}

#[test]
fn profiles_match_the_name_lookup_versions_and_leave_the_rng_where_they_did() {
    for seed in 0..DRAWS {
        let (p, sig, cores, secs) = draw(seed);
        let what = format!("draw {seed}: {sig:?}, {cores} cores, {secs} s");

        let (mut rng, mut frozen_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let profile = p.profile_epoch(&sig, cores, secs, &mut rng);
        let want = frozen::profile_epoch(&p, &sig, cores, secs, &mut frozen_rng);
        assert_eq!(bits(profile.counts()), bits(&want), "profile_epoch, {what}");
        assert_eq!(rng, frozen_rng, "profile_epoch RNG, {what}");
        assert_eq!(bits(&profile.features()), bits(&frozen::features(&want)), "features, {what}");
        for (i, name) in EVENT_NAMES.iter().enumerate() {
            assert_eq!(profile.get(name), Some(want[i]), "get({name}), {what}");
        }

        // The fallible variant continues the same stream; a faulted read
        // draws nothing.
        assert!(p.try_profile_epoch(&sig, cores, secs, &mut rng, 1, true).is_err());
        let profile = p.try_profile_epoch(&sig, cores, secs, &mut rng, 1, false).expect("clean");
        let want = frozen::profile_epoch(&p, &sig, cores, secs, &mut frozen_rng);
        assert_eq!(bits(profile.counts()), bits(&want), "try_profile_epoch, {what}");
        assert_eq!(rng, frozen_rng, "try_profile_epoch RNG, {what}");

        assert!(p.try_sample_epoch(&sig, cores, secs, &mut rng, 1, true).is_err());
        let scaled = p
            .try_sample_epoch(&sig, cores, secs, &mut rng, 1, false)
            .expect("clean")
            .scale_to_epoch();
        let want = frozen::sample_and_scale(&p, &sig, cores, secs, &mut frozen_rng);
        assert_eq!(bits(scaled.counts()), bits(&want), "sampled profile, {what}");
        assert_eq!(rng, frozen_rng, "try_sample_epoch RNG, {what}");
        assert_eq!(
            bits(&scaled.features()),
            bits(&frozen::features(&want)),
            "sampled features, {what}"
        );
    }
}

#[test]
fn event_index_agrees_with_the_linear_scan() {
    assert_eq!(EVENT_NAMES.len(), NUM_EVENTS);
    for name in EVENT_NAMES {
        assert_eq!(event_index(name), frozen::event_index(name), "{name}");
        // Near misses on either side of every name.
        for near in [&name[..name.len() - 1], &format!("{name}/"), &name.to_uppercase()] {
            assert_eq!(event_index(near), frozen::event_index(near), "{near}");
        }
    }
    assert_eq!(event_index(""), None);
}
