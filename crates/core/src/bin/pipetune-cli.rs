//! `pipetune-cli` — run an HPT job from the command line.
//!
//! ```sh
//! pipetune-cli --workload lenet/mnist --approach pipetune --jobs 2 --warm
//! pipetune-cli --workload bfs --testbed single --approach v1
//! pipetune-cli --list
//! ```

use pipetune::{
    warm_start_ground_truth, ExperimentEnv, PipeTune, TuneV1, TuneV2, TunerOptions, WorkloadSpec,
};

#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    workload: String,
    approach: Approach,
    testbed: Testbed,
    seed: u64,
    jobs: usize,
    scale: f32,
    r_max: u32,
    warm: bool,
    save_model: Option<String>,
    list: bool,
    help: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Approach {
    PipeTune,
    V1,
    V2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Testbed {
    Distributed,
    Single,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            workload: "lenet/mnist".into(),
            approach: Approach::PipeTune,
            testbed: Testbed::Distributed,
            seed: 42,
            jobs: 1,
            scale: 0.5,
            r_max: 9,
            warm: false,
            save_model: None,
            list: false,
            help: false,
        }
    }
}

const USAGE: &str = "\
pipetune-cli — tune a workload with PipeTune or the Tune baselines

USAGE:
    pipetune-cli [OPTIONS]

OPTIONS:
    --workload <name>     workload to tune (see --list)      [lenet/mnist]
    --approach <name>     pipetune | v1 | v2                 [pipetune]
    --testbed <name>      distributed | single               [distributed]
    --seed <u64>          experiment seed                    [42]
    --jobs <n>            consecutive jobs (shared history)  [1]
    --scale <f32>         dataset scale                      [0.5]
    --r-max <u32>         HyperBand per-trial epoch budget   [9]
    --warm                warm-start the ground truth (§7.2)
    --save-model <path>   write the selected model as JSON (weights as f32 bit patterns)
    --list                list workloads and exit
    --help                print this help";

/// Parses CLI arguments. Pure so it can be unit-tested.
fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, String> {
    let mut out = CliArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--approach" => {
                out.approach = match value("--approach")?.as_str() {
                    "pipetune" => Approach::PipeTune,
                    "v1" => Approach::V1,
                    "v2" => Approach::V2,
                    other => return Err(format!("unknown approach '{other}'")),
                }
            }
            "--testbed" => {
                out.testbed = match value("--testbed")?.as_str() {
                    "distributed" => Testbed::Distributed,
                    "single" => Testbed::Single,
                    other => return Err(format!("unknown testbed '{other}'")),
                }
            }
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "bad --seed".to_string())?
            }
            "--jobs" => {
                out.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs".to_string())?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--scale" => {
                out.scale = value("--scale")?.parse().map_err(|_| "bad --scale".to_string())?
            }
            "--r-max" => {
                out.r_max = value("--r-max")?.parse().map_err(|_| "bad --r-max".to_string())?;
                if out.r_max == 0 {
                    return Err("--r-max must be at least 1".into());
                }
            }
            "--warm" => out.warm = true,
            "--save-model" => out.save_model = Some(value("--save-model")?),
            "--list" => out.list = true,
            "--help" | "-h" => out.help = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(out)
}

fn run(args: CliArgs) -> Result<(), String> {
    if args.help {
        println!("{USAGE}");
        return Ok(());
    }
    if args.list {
        println!("workloads:");
        for spec in WorkloadSpec::all_type12().into_iter().chain(WorkloadSpec::all_type3()) {
            println!("  {:<15} {}", spec.name(), spec.job_type().label());
        }
        return Ok(());
    }
    let spec = WorkloadSpec::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload '{}' (try --list)", args.workload))?;
    let env = match args.testbed {
        Testbed::Distributed => ExperimentEnv::distributed(args.seed),
        Testbed::Single => ExperimentEnv::single_node(args.seed),
    };
    let options = TunerOptions {
        r_max: args.r_max,
        scale: args.scale,
        ..TunerOptions::fast()
    };

    let mut pipetune = if args.warm && args.approach == Approach::PipeTune {
        let gt = warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)
            .map_err(|e| e.to_string())?;
        PipeTune::with_ground_truth(options, gt)
    } else {
        PipeTune::new(options)
    };
    let mut v1 = TuneV1::new(options);
    let mut v2 = TuneV2::new(options);

    for job in 1..=args.jobs {
        let out = match args.approach {
            Approach::PipeTune => pipetune.run(&env, &spec),
            Approach::V1 => v1.run(&env, &spec),
            Approach::V2 => v2.run(&env, &spec),
        }
        .map_err(|e| e.to_string())?;
        println!(
            "job {job}: {} accuracy {:>5.1}%  tuning {:>8.0}s  energy {:>8.1}kJ  best {} (hits {}, probes {})",
            out.workload,
            out.best_accuracy * 100.0,
            out.tuning_secs,
            out.tuning_energy_j / 1000.0,
            out.best_system,
            out.gt_stats.hits,
            out.gt_stats.recorded,
        );
        if job == args.jobs {
            if let Some(path) = &args.save_model {
                match &out.model_weights {
                    Some(weights) => {
                        let artefact = serde_json::json!({
                            "workload": out.workload,
                            "accuracy": out.best_accuracy,
                            "hyperparams": out.best_hp,
                            "system": out.best_system,
                            "weights": weights,
                        });
                        std::fs::write(
                            path,
                            serde_json::to_string(&artefact).map_err(|e| e.to_string())?,
                        )
                        .map_err(|e| e.to_string())?;
                        println!("saved trained model to {path}");
                    }
                    None => eprintln!("note: {} has no weights to save", out.workload),
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CliArgs, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply_without_arguments() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
    }

    #[test]
    fn full_argument_set_parses() {
        let a = parse(&[
            "--workload", "bfs", "--approach", "v2", "--testbed", "single", "--seed", "7",
            "--jobs", "3", "--scale", "0.25", "--r-max", "27", "--warm",
            "--save-model", "/tmp/model.json",
        ])
        .unwrap();
        assert_eq!(a.workload, "bfs");
        assert_eq!(a.approach, Approach::V2);
        assert_eq!(a.testbed, Testbed::Single);
        assert_eq!(a.seed, 7);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.r_max, 27);
        assert!(a.warm);
        assert_eq!(a.save_model.as_deref(), Some("/tmp/model.json"));
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        assert!(parse(&["--approach", "magic"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--r-max", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn run_rejects_unknown_workloads() {
        let args = CliArgs { workload: "nope".into(), ..CliArgs::default() };
        assert!(run(args).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn list_and_help_short_circuit() {
        run(CliArgs { list: true, ..CliArgs::default() }).unwrap();
        run(CliArgs { help: true, ..CliArgs::default() }).unwrap();
    }
}
