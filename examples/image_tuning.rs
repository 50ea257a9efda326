//! Type-I scenario: tune LeNet-5 on the two image datasets and compare all
//! three approaches (Tune V1, Tune V2, PipeTune), Table-2 style.
//!
//! ```sh
//! cargo run --release --example image_tuning
//! ```

use pipetune::prelude::*;
use pipetune::single_tenancy;

fn main() -> Result<(), pipetune::PipeTuneError> {
    let env = ExperimentEnvBuilder::distributed(7).build()?;
    let options = TunerOptions::fast();
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::lenet_fashion()];

    println!("tuning {} Type-I workloads with three approaches...\n", specs.len());
    let rows = single_tenancy(&env, &specs, &options)?;

    println!(
        "{:<16} {:<9} {:>9} {:>12} {:>11} {:>12}",
        "workload", "approach", "accuracy", "training[s]", "tuning[s]", "energy[kJ]"
    );
    for r in &rows {
        println!(
            "{:<16} {:<9} {:>8.1}% {:>12.0} {:>11.0} {:>12.1}",
            r.workload,
            r.approach,
            r.accuracy * 100.0,
            r.training_secs,
            r.tuning_secs,
            r.tuning_energy_j / 1000.0
        );
    }

    // The paper's reading: PipeTune keeps V1's accuracy at a fraction of the
    // tuning cost, while V2 trades accuracy for training speed.
    for chunk in rows.chunks(3) {
        let (v1, pt) = (&chunk[0], &chunk[2]);
        println!(
            "\n{}: PipeTune tunes {:.0}% faster than Tune V1 at {:+.1}pp accuracy",
            v1.workload,
            (1.0 - pt.tuning_secs / v1.tuning_secs) * 100.0,
            (pt.accuracy - v1.accuracy) * 100.0
        );
    }
    Ok(())
}
