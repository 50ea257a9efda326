//! Drives the built `pipetune-bench` binary the way a user does: from a
//! working directory of its own, so `target/experiments` lands inside it.
//!
//! `all --quick` is the pin on red: the one claim known not to hold at
//! quick scale is listed here, so ROADMAP item 3c shrinks the list and any
//! *new* red claim breaks the suite.
//!
//! The commands beside the experiments — `run`, `headline`, `trace` — are
//! driven the same way, at the end: their output, their exit codes, and
//! what `headline` writes next to a baseline it checks.

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

// ---------------------------------------------------------------- commands

/// Tunes `bfs` on one node under live telemetry and writes the trace as
/// `name` in `dir`.
fn record_trace(dir: &Path, name: &str, seed: u64) {
    use pipetune::prelude::*;
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::single_node(seed).telemetry(telemetry.clone()).build().unwrap();
    PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::bfs()).unwrap();
    std::fs::write(dir.join(name), telemetry.snapshot().unwrap().to_json_string()).unwrap();
}

#[test]
fn run_lists_workloads_and_replays_a_seed() {
    let dir = workdir("run");
    let list = bench(&dir, &["run", "--list"]);
    assert_eq!(list.status.code(), Some(0));
    let listed = text(&list.stdout);
    assert_eq!(listed.lines().next(), Some("workloads:"));
    assert_eq!(listed.lines().filter(|l| l.starts_with("  ")).count(), 7, "{listed}");

    let args = ["run", "--jobs", "2", "--scale", "0.2", "--seed", "42"];
    let (first, again) = (bench(&dir, &args), bench(&dir, &args));
    assert_eq!(first.status.code(), Some(0), "{}", text(&first.stderr));
    assert_eq!(first.stdout, again.stdout, "one seed, one output");
    let jobs = text(&first.stdout);
    let lines: Vec<&str> = jobs.lines().collect();
    assert_eq!(lines.len(), 2, "{jobs}");
    assert!(lines[0].starts_with("job 1: lenet/mnist") && lines[1].starts_with("job 2:"), "{jobs}");
    // The second job reuses what the first recorded instead of probing.
    assert!(lines[1].ends_with("probes 0)") && !lines[1].contains("(hits 0,"), "{jobs}");
}

#[test]
fn run_refuses_what_it_cannot_tune() {
    let dir = workdir("run_refusals");
    let unknown = bench(&dir, &["run", "--workload", "nope"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert_eq!(text(&unknown.stderr), "error: unknown workload 'nope' (try --list)\n");
    for (args, why) in [
        (&["run", "--jobs", "0"][..], "--jobs must be at least 1"),
        (&["run", "--save-model", "x"], "unknown argument '--save-model' (try --help)"),
        (&["run", "--scale", "nan"], "--scale must be within 0.05..=4.0"),
        (&["run", "--scale", "inf"], "--scale must be within 0.05..=4.0"),
        (&["run", "--scale", "4.5"], "--scale must be within 0.05..=4.0"),
        (&["run", "--seed"], "--seed requires a value"),
        (&["run", "--approach", "magic"], "unknown approach 'magic'"),
    ] {
        let run = bench(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
        let stderr = text(&run.stderr);
        assert!(stderr.starts_with(&format!("error: {why}\n\n")), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
    assert!(!dir.join("x").exists(), "--save-model wrote a file");
}

#[test]
fn trace_reads_a_recorded_trace() {
    let dir = workdir("trace");
    record_trace(&dir, "a.json", 1);
    record_trace(&dir, "b.json", 2);

    let report = bench(&dir, &["trace", "report", "a.json"]);
    assert_eq!(report.status.code(), Some(0), "{}", text(&report.stderr));
    assert!(!report.stdout.is_empty());

    let valid = bench(&dir, &["trace", "validate", "a.json"]);
    assert_eq!(valid.status.code(), Some(0));
    assert!(text(&valid.stdout).starts_with("a.json: valid trace ("), "{}", text(&valid.stdout));

    let watch = bench(&dir, &["trace", "watch", "a.json"]);
    assert_eq!(watch.status.code(), Some(0));
    assert!(text(&watch.stdout).contains("\"alerts\""), "{}", text(&watch.stdout));
    assert!(text(&watch.stderr).starts_with("pipetune-trace: "), "{}", text(&watch.stderr));

    let same = bench(&dir, &["trace", "diff", "a.json", "a.json"]);
    assert_eq!(same.status.code(), Some(0));
    assert_eq!(text(&same.stdout), "traces are byte-identical\n");
    let differ = bench(&dir, &["trace", "diff", "a.json", "b.json"]);
    assert_eq!(differ.status.code(), Some(0));
    assert!(text(&differ.stdout).starts_with("first difference: "), "{}", text(&differ.stdout));
}

#[test]
fn trace_refuses_a_missing_file_bad_json_and_no_arguments() {
    let dir = workdir("trace_refusals");
    std::fs::write(dir.join("bad.json"), "{\"spans\": [").unwrap();
    let missing = bench(&dir, &["trace", "report", "missing.json"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(text(&missing.stderr).starts_with("pipetune-trace: cannot read missing.json: "));
    let bad = bench(&dir, &["trace", "validate", "bad.json"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(text(&bad.stderr).starts_with("pipetune-trace: bad.json: "), "{}", text(&bad.stderr));
    for args in [&["trace"][..], &["trace", "explain", "bad.json"]] {
        let usage = bench(&dir, args);
        assert_eq!(usage.status.code(), Some(1), "{args:?}");
        assert!(text(&usage.stderr).starts_with("usage: pipetune-bench trace "), "{args:?}");
    }
}

/// `headline` and `headline --chaos` regenerate the committed reports byte
/// for byte.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the headline runs; CI runs this suite with --release"
)]
fn headline_regenerates_the_committed_reports() {
    let dir = workdir("headline");
    for (args, committed) in [
        (&["headline", "--out", "h.json"][..], "BENCH_pipetune.json"),
        (&["headline", "--chaos", "--out", "c.json"], "BENCH_pipetune.chaos.json"),
    ] {
        let run = bench(&dir, args);
        assert_eq!(run.status.code(), Some(0), "{args:?}: {}", text(&run.stderr));
        let fresh = std::fs::read(dir.join(args[args.len() - 1])).unwrap();
        let committed =
            std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(committed));
        assert!(fresh == committed.unwrap(), "{args:?} does not reproduce the committed file");
    }
    for policy in ["fifo", "processor_sharing", "shortest_remaining"] {
        assert!(dir.join(format!("target/incidents.{policy}.json")).exists(), "{policy}");
    }
}

/// `headline --check` reads its baseline first and never writes over it:
/// a regressed copy of `BENCH_pipetune.json` under the default report name
/// fails the gate, stays as it was, and the fresh report lands beside it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the headline runs; CI runs this suite with --release"
)]
fn headline_check_never_compares_a_report_with_itself() {
    let dir = workdir("headline_check");
    let committed = include_str!("../../../BENCH_pipetune.json");
    let mut baseline = pipetune_insight::BenchReport::from_json_str(committed).unwrap();
    baseline.metrics.insert("lenet_mnist.speedup_vs_v1".into(), 9.0);
    let perturbed = format!("{}\n", baseline.to_json_string());
    std::fs::write(dir.join("BENCH_pipetune.json"), &perturbed).unwrap();

    let run = bench(&dir, &["headline", "--check", "BENCH_pipetune.json"]);
    assert_eq!(run.status.code(), Some(2), "{}", text(&run.stderr));
    assert!(text(&run.stdout).contains("REGRESSED"), "{}", text(&run.stdout));
    assert_eq!(std::fs::read_to_string(dir.join("BENCH_pipetune.json")).unwrap(), perturbed);
    let current = std::fs::read_to_string(dir.join("BENCH_pipetune.current.json")).unwrap();
    assert!(current == committed, "the fresh report is not the committed one");
}

/// What `headline --check` refuses before it runs anything: a baseline it
/// could not have written, and an `--out` that would write over it.
#[test]
fn headline_check_refuses_before_running() {
    let dir = workdir("headline_refusals");
    let committed = include_str!("../../../BENCH_pipetune.json");
    std::fs::write(dir.join("BENCH_pipetune.json"), committed).unwrap();
    let key = "\"lenet_mnist.speedup_vs_v1\": ";
    let at = committed.find(key).unwrap() + key.len();
    let end = at + committed[at..].find(',').unwrap();
    let infinite = format!("{}1e999{}", &committed[..at], &committed[end..]);
    std::fs::write(dir.join("infinite.json"), infinite).unwrap();
    let refused = bench(&dir, &["headline", "--check", "infinite.json"]);
    assert_eq!(refused.status.code(), Some(1));
    assert_eq!(
        text(&refused.stderr),
        "bench_headline: cannot load baseline infinite.json: \
         bench report: metric lenet_mnist.speedup_vs_v1 is not finite\n"
    );

    let args = ["headline", "--out", "BENCH_pipetune.json", "--check", "BENCH_pipetune.json"];
    let refused = bench(&dir, &args);
    assert_eq!(refused.status.code(), Some(1));
    assert_eq!(
        text(&refused.stderr),
        "bench_headline: --out BENCH_pipetune.json would write over the baseline\n"
    );
    assert_eq!(std::fs::read_to_string(dir.join("BENCH_pipetune.json")).unwrap(), committed);
    assert!(!dir.join("target").exists(), "a refused check ran");
}
