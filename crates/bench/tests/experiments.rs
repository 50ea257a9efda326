//! Drives the built `pipetune-bench` binary the way a user does: from a
//! working directory of its own, so `target/experiments` lands inside it.
//!
//! `all --quick` is the pin on red: the one claim known not to hold at
//! quick scale is listed here, so ROADMAP item 3c shrinks the list and any
//! *new* red claim breaks the suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The claims red at HEAD under `all --quick` (EXPERIMENTS.md, "Claims red
/// at HEAD"); item 3c of the roadmap empties this.
const EXPECTED_RED_QUICK: &str = r#"FAILED: ["ablation_groundtruth"]"#;

/// A fresh, empty working directory for one test.
fn workdir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test working directory");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pipetune-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("launch pipetune-bench")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The experiments an `all` run announced, in order, without the summary step.
fn announced(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("########## ")?.strip_suffix(" ##########"))
        .filter(|name| *name != "summarize")
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs 16 experiments; CI runs this suite with --release")]
fn all_quick_is_red_only_where_expected() {
    let dir = workdir("all_quick");
    let run = bench(&dir, &["all", "--quick"]);
    let stdout = text(&run.stdout);
    assert_eq!(run.status.code(), Some(1), "{stdout}");
    assert_eq!(stdout.lines().last(), Some(EXPECTED_RED_QUICK));

    let experiments = announced(&stdout);
    assert_eq!(experiments.len(), 16);
    for name in experiments {
        let report = std::fs::read_to_string(dir.join(format!("target/experiments/{name}.txt")));
        assert!(report.is_ok_and(|r| !r.is_empty()), "{name} left no report");
    }
    let summary = std::fs::read_to_string(dir.join("target/experiments/summary.txt")).unwrap();
    assert!(!summary.contains("missing artefacts"), "{summary}");
    // Heading, table header and separator, then the seven headline rows.
    assert_eq!(summary.lines().count(), 3 + 7, "{summary}");
}

#[test]
fn named_experiments_run_in_the_order_given() {
    let dir = workdir("named");
    let names = ["table1_related_matrix", "table3_workloads", "fig01_grid_explosion"];
    let run = bench(&dir, &names);
    assert_eq!(run.status.code(), Some(0), "{}", text(&run.stderr));
    let stdout = text(&run.stdout);
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    let expected: Vec<String> = names.iter().map(|n| format!("== {n} ==")).collect();
    assert_eq!(headings, expected);
    assert!(!stdout.contains("##########"), "banners belong to `all`: {stdout}");
}

/// The registry as the usage text prints it: `(name, about)` per line.
fn usage_registry(stderr: &str) -> Vec<(String, String)> {
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_once(' '))
        .map(|(name, about)| (name.to_string(), about.trim().to_string()))
        .collect()
}

#[test]
fn unmatched_arguments_print_usage_and_run_nothing() {
    let dir = workdir("usage");
    for args in [&["all", "--quik"][..], &["fig99_nothing"], &["table1_related_matrix", "-q"], &[]]
    {
        let run = bench(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed {}", text(&run.stdout));
        let registry = usage_registry(&text(&run.stderr));
        assert_eq!(registry.len(), 24, "{args:?}: {}", text(&run.stderr));
        assert!(registry.iter().all(|(_, about)| !about.is_empty()));
        assert!(!dir.join("target").exists(), "{args:?} wrote artefacts");
    }
}

#[test]
fn every_registry_name_is_indexed_in_experiments_md() {
    let index = include_str!("../../../EXPERIMENTS.md");
    let run = bench(&workdir("index"), &[]);
    for (name, _) in usage_registry(&text(&run.stderr)) {
        assert!(index.contains(&format!("`{name}`")), "EXPERIMENTS.md does not index {name}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs 16 experiments; CI runs this suite with --release")]
fn an_unwritable_artefact_directory_fails_every_experiment() {
    let dir = workdir("blocked");
    std::fs::create_dir(dir.join("target")).unwrap();
    std::fs::write(dir.join("target/experiments"), "in the way").unwrap();
    let run = bench(&dir, &["all", "--quick"]);
    let stdout = text(&run.stdout);
    assert_eq!(run.status.code(), Some(1));
    assert!(!stdout.contains("artefacts in"), "the footer must not claim artefacts: {stdout}");
    let failed =
        stdout.lines().last().filter(|l| l.starts_with("FAILED:")).expect("a FAILED footer");
    for name in announced(&stdout).into_iter().chain(["summary"]) {
        assert!(failed.contains(&format!("{name:?}")), "{name} is not in {failed}");
    }
    let blocker = std::fs::read_to_string(dir.join("target/experiments")).unwrap();
    assert_eq!(blocker, "in the way");
}
