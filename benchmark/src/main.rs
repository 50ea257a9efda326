//! Wall-clock benchmark of the PipeTune reproduction.
//!
//! ```text
//! pipetune-wallbench --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick]
//! pipetune-wallbench --all [--repeat <n>] [--out <file>] [--seed ..] [--seconds ..] [--trace ..] [--quick]
//! pipetune-wallbench compare <parent.jsonl> <change.jsonl>
//! pipetune-wallbench manifest
//! ```
//!
//! One workload runs in this process; `--all` and `--repeat` start one child
//! process per run, one after the other, so `peak_rss_mb` belongs to a
//! single workload. A run prints every metric by name and unit and ends with
//! one JSON line; the exit code is non-zero when a correctness check failed.

mod common;
mod harness;
mod probes;
mod report;
mod span;
mod stats;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use common::{BenchResult, Size};
use harness::RunConfig;
use workloads::WORKLOADS;

/// Seconds a `--quick` run measures for unless `--seconds` says otherwise:
/// long enough for two passes of every shrunk workload.
const QUICK_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: pipetune-wallbench (--workload <name> | --all) [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--quick] [--repeat <n>] [--out <file>]\n       pipetune-wallbench compare <parent.jsonl> <change.jsonl>\n       \
pipetune-wallbench manifest";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--all" => parsed.all = true,
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat 0 runs nothing".into());
                }
            }
            "--out" => parsed.out = Some(value("a file")?),
            "--quick" => parsed.quick = true,
            // `--trace` alone switches tracing on; the driver writes `--trace 0|1`.
            "--trace" => {
                parsed.trace = it
                    .next_if(|next| matches!(next.as_str(), "0" | "1"))
                    .is_none_or(|next| next == "1")
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (&parsed.workload, parsed.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (None, false) => Err("name a workload with --workload, or pass --all".into()),
        (Some(name), false) if !WORKLOADS.iter().any(|(w, _)| w == name) => {
            let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            Err(format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ))
        }
        _ => Ok(parsed),
    }
}

/// Runs one workload in this process and prints its report.
fn run_here(name: &str, args: &Args) -> BenchResult<bool> {
    let size = if args.quick { Size::Quick } else { Size::Full };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        f64::from(report::RUN_SECONDS)
    });
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        trace: args.trace,
        size,
    };
    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}  size {size:?}",
        args.seed,
        u8::from(args.trace)
    );
    let result = harness::run(name, cfg)?;
    if args.trace {
        let dir = common::results_dir();
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{name}.trace.json")),
            report::trace_file(name, args.seed, &result),
        )?;
    }
    for (metric, value) in &result.metrics {
        println!(
            "{metric:<36} {value:>18.6} {}",
            report::unit_of(metric).unwrap_or("count")
        );
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for failure in &result.failures {
        println!("FAILED {failure}");
    }
    println!("{}", report::result_line(&result));
    Ok(result.correct())
}

/// Runs one workload in a child process; returns its result line.
fn run_child(name: &str, seed: u64, args: &Args) -> BenchResult<(bool, String)> {
    let mut command = Command::new(std::env::current_exe()?);
    command.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or_default().to_string();
    Ok((output.status.success(), line))
}

/// `--all` and `--repeat`: children one after the other, then the summary.
fn run_children(names: &[&str], args: &Args) -> BenchResult<bool> {
    let mut all_correct = true;
    let mut runs = report::Runs::new();
    let mut out = match &args.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        ),
        None => None,
    };
    for rep in 0..args.repeat {
        // Another seed each repetition, as the steadiness check asks.
        let seed = args.seed.wrapping_add(rep as u64);
        for name in names {
            let (ok, line) = run_child(name, seed, args)?;
            let parsed = report::parse_result_line(&line);
            all_correct &= ok && matches!(parsed, Ok((true, _)));
            if let Ok((_, metrics)) = parsed {
                report::add_run(&mut runs, name, metrics);
                if let Some(file) = out.as_mut() {
                    writeln!(
                        file,
                        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
                        u8::from(args.trace)
                    )?;
                }
            }
        }
    }
    if args.repeat > 1 && !args.trace {
        report::print_repeat_summary(&runs);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, parent, change] => report::compare(parent, change).map(|regressed| !regressed),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else if args == ["manifest"] {
        print!("{}", report::manifest());
        Ok(true)
    } else {
        let parsed = match parse_args(&args) {
            Ok(parsed) => parsed,
            Err(why) => {
                eprintln!("error: {why}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        match &parsed.workload {
            Some(name) if parsed.repeat == 1 && parsed.out.is_none() => run_here(name, &parsed),
            Some(name) => run_children(&[name.as_str()], &parsed),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                run_children(&names, &parsed)
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}
