//! Training on *real* MNIST via the IDX loader.
//!
//! Point the environment variables at the standard files and the example
//! trains LeNet-5 on the genuine dataset; without them it falls back to the
//! synthetic stand-in so the example always runs:
//!
//! ```sh
//! MNIST_IMAGES=train-images-idx3-ubyte MNIST_LABELS=train-labels-idx1-ubyte \
//!     cargo run --release --example idx_mnist
//! ```

use pipetune_data::{dataset_from_idx, mnist_like, ImageSpec};
use pipetune_dnn::{Dataset, LeNet5, Model, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn load() -> Result<(Dataset, Dataset, usize, &'static str), Box<dyn std::error::Error>> {
    match (std::env::var("MNIST_IMAGES"), std::env::var("MNIST_LABELS")) {
        (Ok(images), Ok(labels)) => {
            let data = dataset_from_idx(images.as_ref(), labels.as_ref(), 10)?;
            // Take a train/eval split off the front for a quick demo; real
            // MNIST is 28x28, which LeNet-5 supports natively.
            let n = data.len().min(2_000);
            let cut = n * 4 / 5;
            let idx_train: Vec<usize> = (0..cut).collect();
            let idx_test: Vec<usize> = (cut..n).collect();
            let train = Dataset::new(
                pipetune_dnn::Features::Images(data.gather_images(&idx_train)?),
                data.gather_labels(&idx_train),
                10,
            )?;
            let test = Dataset::new(
                pipetune_dnn::Features::Images(data.gather_images(&idx_test)?),
                data.gather_labels(&idx_test),
                10,
            )?;
            Ok((train, test, 28, "real MNIST (IDX files)"))
        }
        _ => {
            let spec = ImageSpec { train: 400, test: 100, ..ImageSpec::default() };
            let (train, test) = mnist_like(&spec, 7)?;
            Ok((
                train,
                test,
                16,
                "synthetic MNIST stand-in (set MNIST_IMAGES/MNIST_LABELS for the real thing)",
            ))
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test, size, source) = load()?;
    println!("dataset: {source} — {} train / {} test examples", train.len(), test.len());

    let mut rng = StdRng::seed_from_u64(7);
    let mut model = LeNet5::with_input_size(size, 10, 0.1, &mut rng)?;
    let cfg = TrainConfig { batch_size: 32, learning_rate: 0.02, ..TrainConfig::default() };
    for epoch in 1..=6 {
        let m = model.train_epoch(&train, &cfg, &mut rng)?;
        println!("epoch {epoch}: loss {:.3}, train accuracy {:.1}%", m.loss, m.accuracy * 100.0);
    }
    let acc = model.evaluate(&test)?;
    let cm = model.confusion(&test)?;
    println!("\nheld-out accuracy {:.1}%, macro-F1 {:.3}", acc * 100.0, cm.macro_f1());
    if let Some((confused_with, count)) = cm.top_confusion(0) {
        println!("class 0 is most often confused with class {confused_with} ({count} times)");
    }
    Ok(())
}
