//! Regenerates every table and figure by running all experiment binaries in
//! sequence. Artefacts land in `target/experiments/`.
//!
//! Pass `--quick` to forward quick mode to every child.

use std::process::Command;

const BINARIES: [&str; 16] = [
    "table1_related_matrix",
    "table3_workloads",
    "fig01_grid_explosion",
    "fig02_profile_heatmap",
    "fig03_param_impact",
    "fig05_tune_characterization",
    "table2_approaches",
    "fig08_clustering",
    "fig09_accuracy_convergence",
    "fig10_trialtime_convergence",
    "fig11_single_tenancy",
    "fig12_type3",
    "fig13_multitenant",
    "fig14_multitenant_type3",
    "ablation_groundtruth",
    "ablation_threshold",
];

/// Slower ablations appended when not in quick mode.
const SLOW: [&str; 8] = [
    "ablation_probe_goal",
    "ablation_profiling_overhead",
    "ablation_scheduler",
    "ablation_similarity",
    "extension_frequency",
    "extension_shared_cluster",
    "extension_sampling",
    "extension_k_selection",
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures = Vec::new();
    let list: Vec<&str> = if quick {
        BINARIES.to_vec()
    } else {
        BINARIES.iter().chain(SLOW.iter()).copied().collect()
    };
    // The summary assembles the headline paper-vs-measured table from the
    // artefacts; a missing or failing one fails the run like any experiment.
    for bin in list.iter().chain(&["summarize"]) {
        println!("\n########## {bin} ##########");
        let mut cmd = Command::new(exe_dir.join(bin));
        if quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{bin} exited with {status}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to launch: {e}");
                failures.push(*bin);
            }
        }
    }

    println!("\n==================================================");
    if failures.is_empty() {
        println!("all {} experiments reproduced; artefacts in target/experiments/", list.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
