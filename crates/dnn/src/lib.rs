//! From-scratch CPU deep-learning framework for the PipeTune reproduction.
//!
//! The paper trains LeNet-5, a text CNN and an LSTM through BigDL. This crate
//! provides the equivalent substrate in pure Rust: trainable layers
//! (dense, 2-D convolution, pooling, dropout, embedding, LSTM), SGD with
//! momentum, softmax cross-entropy, and the three paper models. Training is
//! *real* — gradients are backpropagated and accuracy genuinely responds to
//! the hyperparameters PipeTune tunes (batch size, dropout, embedding
//! dimensions, learning rate, epochs).
//!
//! The three models share one interface, [`Model`]: train an epoch,
//! evaluate, snapshot and restore. Each model gathers the feature kind it
//! reads from `(dataset, indices)`, and the trait is object-safe, so a
//! trial drives whichever model its workload names through `&mut dyn
//! Model` without knowing its type.
//!
//! Every stochastic choice (weight init, shuffling, dropout masks) flows from
//! an explicit seed, so tuning experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use pipetune_dnn::{Dataset, Features, LeNet5, Model, TrainConfig};
//! use pipetune_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), pipetune_dnn::DnnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! // 8 random 16x16 one-channel "images", 2 classes.
//! let images = Tensor::randn(&[8, 1, 16, 16], 1.0, &mut rng);
//! let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
//! let data = Dataset::new(Features::Images(images), labels, 2)?;
//! let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng)?;
//! let cfg = TrainConfig { batch_size: 4, learning_rate: 0.05, ..TrainConfig::default() };
//! let metrics = model.train_epoch(&data, &cfg, &mut rng)?;
//! assert!(metrics.loss.is_finite());
//! # Ok(())
//! # }
//! ```

mod confusion;
mod dataset;
mod error;
#[cfg(test)]
mod gradcheck;
mod lanes;
mod layers;
mod loss;
mod lstm;
mod metrics;
mod models;
mod optim;
mod param;

pub use confusion::ConfusionMatrix;
pub use dataset::{BatchIndices, Dataset, Features};
pub use error::DnnError;
pub use layers::{Conv2d, Dense, Dropout, Embedding, Flatten, MaxPool2d, Relu};
pub use loss::softmax_cross_entropy;
pub use lstm::LstmCell;
pub use metrics::EpochMetrics;
pub use models::{LeNet5, LstmClassifier, Model, ModelSignature, TextCnn};
pub use optim::{Sgd, TrainConfig};
pub use param::Param;
