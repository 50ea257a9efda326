//! Multi-tenant scenario (§7.4): a Poisson trace of HPT jobs served FIFO on
//! a shared cluster; PipeTune's ground truth amortises probing across
//! tenants and cuts the average response time.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use pipetune::prelude::*;
use pipetune::{multi_tenancy, MultiTenancyOptions};

fn main() -> Result<(), pipetune::PipeTuneError> {
    let env = ExperimentEnvBuilder::distributed(31).build()?;
    let options = TunerOptions::fast();
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::cnn_news20()];
    let mt = MultiTenancyOptions { jobs: 4, arrival_rate_per_sec: 1.0 / 2000.0, seed: 31 };

    println!("running a {}-job Poisson trace under three tuners...\n", mt.jobs);
    let outcomes = multi_tenancy(&env, &specs, &options, &mt)?;

    println!("{:<10} {:>22}", "approach", "avg response time [s]");
    for o in &outcomes {
        println!("{:<10} {:>22.0}", o.approach, o.overall_secs);
        for (workload, secs) in &o.per_workload_secs {
            println!("  {workload:<20} {secs:>10.0}");
        }
    }

    let v1 = outcomes.iter().find(|o| o.approach == "TuneV1").expect("v1 present");
    let pt = outcomes.iter().find(|o| o.approach == "PipeTune").expect("pipetune present");
    println!(
        "\nPipeTune reduces the average response time by {:.0}% vs Tune V1 (paper: up to 30%)",
        (1.0 - pt.overall_secs / v1.overall_secs) * 100.0
    );
    Ok(())
}
