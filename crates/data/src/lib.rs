//! Seeded synthetic dataset generators standing in for the paper's datasets.
//!
//! The paper evaluates on MNIST, Fashion-MNIST and News20 (Table 3). Those
//! archives cannot be downloaded in this environment, so this crate generates
//! *structurally equivalent* synthetic datasets:
//!
//! * [`mnist_like`] — 10-class images built from smooth per-class prototypes
//!   plus pixel noise and random shifts (digit-like: low spatial frequency).
//! * [`fashion_like`] — same protocol with higher-frequency, texture-like
//!   prototypes and more intra-class variance (fashion is the harder task,
//!   exactly as in the real pair).
//! * [`news20_like`] — 20-class token sequences: a Zipfian background
//!   vocabulary shared by all classes plus a class-specific topic band,
//!   mirroring newsgroup text statistics.
//!
//! Class structure is sampled once from the seed and shared by the train and
//! test splits, so generalisation is real: a model must learn the prototypes
//! to score on the held-out split. Accuracy therefore responds genuinely to
//! batch size, learning rate, dropout, embedding size and epoch count — the
//! five hyperparameters PipeTune tunes.
//!
//! # Example
//!
//! ```
//! use pipetune_data::{mnist_like, ImageSpec};
//!
//! let spec = ImageSpec { train: 64, test: 16, ..ImageSpec::default() };
//! let (train, test) = mnist_like(&spec, 1)?;
//! assert_eq!(train.len(), 64);
//! assert_eq!(test.num_classes(), 10);
//! # Ok::<(), pipetune_dnn::DnnError>(())
//! ```

mod idx;

pub use idx::dataset_from_idx;

use pipetune_dnn::{Dataset, DnnError, Features};
use pipetune_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic image generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageSpec {
    /// Training examples to generate.
    pub train: usize,
    /// Test examples to generate.
    pub test: usize,
    /// Square image side length (must be LeNet-compatible, e.g. 16 or 28).
    pub size: usize,
    /// Number of classes.
    pub classes: usize,
    /// Standard deviation of additive pixel noise.
    pub noise: f32,
}

impl Default for ImageSpec {
    fn default() -> Self {
        // Scaled-down MNIST: full 60k@28x28 would make hundreds of tuning
        // trials take hours; 16x16 keeps LeNet real but fast. Recorded as a
        // substitution in DESIGN.md.
        ImageSpec { train: 512, test: 128, size: 16, classes: 10, noise: 0.55 }
    }
}

/// Configuration for the synthetic text generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextSpec {
    /// Training examples to generate.
    pub train: usize,
    /// Test examples to generate.
    pub test: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Fixed sequence length.
    pub seq_len: usize,
    /// Number of classes (News20 has 20).
    pub classes: usize,
    /// Probability that a token is drawn from the class topic band rather
    /// than the shared background.
    pub topicality: f32,
}

impl Default for TextSpec {
    fn default() -> Self {
        TextSpec { train: 400, test: 100, vocab: 400, seq_len: 24, classes: 20, topicality: 0.6 }
    }
}

/// Smooth per-class prototype: sum of a few random low-frequency cosine bumps.
fn smooth_prototype(size: usize, rng: &mut StdRng, max_freq: f32) -> Vec<f32> {
    let mut proto = vec![0.0f32; size * size];
    let waves = 4;
    for _ in 0..waves {
        let fx = rng.gen_range(0.5..max_freq);
        let fy = rng.gen_range(0.5..max_freq);
        let px = rng.gen_range(0.0..std::f32::consts::TAU);
        let py = rng.gen_range(0.0..std::f32::consts::TAU);
        let amp = rng.gen_range(0.4f32..1.0);
        for y in 0..size {
            for x in 0..size {
                let v = (fx * x as f32 / size as f32 * std::f32::consts::TAU + px).cos()
                    * (fy * y as f32 / size as f32 * std::f32::consts::TAU + py).cos();
                proto[y * size + x] += amp * v;
            }
        }
    }
    proto
}

fn render_images(
    spec: &ImageSpec,
    protos: &[Vec<f32>],
    n: usize,
    rng: &mut StdRng,
) -> Result<Dataset, DnnError> {
    let s = spec.size;
    let mut data = Vec::with_capacity(n * s * s);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % spec.classes;
        let proto = &protos[class];
        let (dx, dy) = (rng.gen_range(-1i32..=1), rng.gen_range(-1i32..=1));
        for y in 0..s as i32 {
            for x in 0..s as i32 {
                let sy = (y + dy).rem_euclid(s as i32) as usize;
                let sx = (x + dx).rem_euclid(s as i32) as usize;
                let noise: f32 = {
                    // Cheap Gaussian-ish noise: sum of 2 uniforms, centred.
                    (rng.gen::<f32>() + rng.gen::<f32>() - 1.0) * spec.noise * 1.7
                };
                data.push(proto[sy * s + sx] + noise);
            }
        }
        labels.push(class);
    }
    let t = Tensor::from_vec(data, &[n, 1, s, s])?;
    Dataset::new(Features::Images(t), labels, spec.classes)
}

fn image_pair(spec: &ImageSpec, seed: u64, max_freq: f32) -> Result<(Dataset, Dataset), DnnError> {
    if spec.classes == 0 || spec.train == 0 || spec.test == 0 {
        return Err(DnnError::InvalidDataset { reason: "spec requires nonzero sizes".into() });
    }
    let mut proto_rng = StdRng::seed_from_u64(seed);
    let protos: Vec<Vec<f32>> =
        (0..spec.classes).map(|_| smooth_prototype(spec.size, &mut proto_rng, max_freq)).collect();
    let mut train_rng = StdRng::seed_from_u64(seed ^ 0x7261_6e64);
    let mut test_rng = StdRng::seed_from_u64(seed ^ 0x7465_7374);
    let train = render_images(spec, &protos, spec.train, &mut train_rng)?;
    let test = render_images(spec, &protos, spec.test, &mut test_rng)?;
    Ok((train, test))
}

/// Generates an MNIST-like train/test pair: smooth, low-frequency class
/// prototypes (digits are blobs).
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] for zero-sized specs.
pub fn mnist_like(spec: &ImageSpec, seed: u64) -> Result<(Dataset, Dataset), DnnError> {
    image_pair(spec, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1), 3.5)
}

/// Generates a Fashion-MNIST-like train/test pair: higher-frequency,
/// texture-like prototypes, making it the harder task of the pair (as in the
/// real datasets).
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] for zero-sized specs.
pub fn fashion_like(spec: &ImageSpec, seed: u64) -> Result<(Dataset, Dataset), DnnError> {
    let mut spec = *spec;
    // Fashion-MNIST is the harder sibling: texture-like prototypes *and*
    // stronger intra-class variation.
    spec.noise *= 1.6;
    image_pair(&spec, seed.wrapping_mul(0x517C_C1B7).wrapping_add(2), 6.0)
}

/// Generates a News20-like train/test token pair.
///
/// Tokens are drawn from a shared Zipfian background or (with probability
/// `topicality`) from a class-specific topic band of the vocabulary.
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] when the vocabulary is smaller than
/// the class count or sizes are zero.
pub fn news20_like(spec: &TextSpec, seed: u64) -> Result<(Dataset, Dataset), DnnError> {
    if spec.vocab < spec.classes * 2 {
        return Err(DnnError::InvalidDataset {
            reason: format!("vocab {} too small for {} classes", spec.vocab, spec.classes),
        });
    }
    if spec.classes == 0 || spec.train == 0 || spec.test == 0 || spec.seq_len == 0 {
        return Err(DnnError::InvalidDataset { reason: "spec requires nonzero sizes".into() });
    }
    let band = spec.vocab / (2 * spec.classes); // topic bands fill half the vocab
    let background_start = spec.classes * band;
    let gen_split = |n: usize, rng: &mut StdRng| -> Result<Dataset, DnnError> {
        let mut seqs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes;
            let seq: Vec<u32> = (0..spec.seq_len)
                .map(|_| {
                    if rng.gen::<f32>() < spec.topicality {
                        (class * band + rng.gen_range(0..band)) as u32
                    } else {
                        // Zipf-ish background: quadratic skew toward low ids.
                        let u: f32 = rng.gen();
                        let r = (u * u * (spec.vocab - background_start) as f32) as usize;
                        (background_start + r.min(spec.vocab - background_start - 1)) as u32
                    }
                })
                .collect();
            seqs.push(seq);
            labels.push(class);
        }
        Dataset::new(Features::Tokens(seqs), labels, spec.classes)
    };
    let mut train_rng = StdRng::seed_from_u64(seed ^ 0x6e65_7773);
    let mut test_rng = StdRng::seed_from_u64(seed ^ 0x3230_3230);
    Ok((gen_split(spec.train, &mut train_rng)?, gen_split(spec.test, &mut test_rng)?))
}

/// Paper metadata for a workload's dataset (Table 3), reported verbatim in
/// experiment output next to our scaled sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Size in MB reported by the paper.
    pub datasize_mb: u32,
    /// Training files reported by the paper.
    pub train_files: u32,
    /// Test files reported by the paper.
    pub test_files: u32,
}

/// Table 3 rows for the datasets this crate synthesises.
pub const DATASET_META: &[DatasetMeta] = &[
    DatasetMeta { name: "MNIST", datasize_mb: 12, train_files: 60_000, test_files: 10_000 },
    DatasetMeta { name: "Fashion-MNIST", datasize_mb: 31, train_files: 60_000, test_files: 10_000 },
    DatasetMeta { name: "News20", datasize_mb: 15, train_files: 11_307, test_files: 7_538 },
    DatasetMeta { name: "Rodinia", datasize_mb: 26, train_files: 1_650, test_files: 7_538 },
];

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_dnn::{LeNet5, Model, TextCnn, TrainConfig};

    #[test]
    fn mnist_like_is_deterministic_per_seed() {
        let spec = ImageSpec { train: 8, test: 4, ..ImageSpec::default() };
        let (a, _) = mnist_like(&spec, 5).unwrap();
        let (b, _) = mnist_like(&spec, 5).unwrap();
        let (c, _) = mnist_like(&spec, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splits_have_requested_sizes_and_classes() {
        let spec = ImageSpec { train: 20, test: 10, classes: 10, ..ImageSpec::default() };
        let (train, test) = fashion_like(&spec, 1).unwrap();
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.num_classes(), 10);
        // All 10 classes appear (round-robin labelling).
        let mut seen = [false; 10];
        for &l in train.labels() {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn news20_like_respects_vocab_bounds() {
        let spec = TextSpec { train: 40, test: 10, ..TextSpec::default() };
        let (train, _) = news20_like(&spec, 3).unwrap();
        if let Features::Tokens(seqs) = train.features() {
            assert!(seqs.iter().flatten().all(|&t| (t as usize) < spec.vocab));
        } else {
            panic!("expected token features");
        }
    }

    #[test]
    fn news20_rejects_tiny_vocab() {
        let spec = TextSpec { vocab: 10, classes: 20, ..TextSpec::default() };
        assert!(news20_like(&spec, 0).is_err());
    }

    #[test]
    fn lenet_generalizes_on_mnist_like() {
        let spec = ImageSpec { train: 200, test: 80, ..ImageSpec::default() };
        let (train, test) = mnist_like(&spec, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = LeNet5::with_input_size(16, 10, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 32, learning_rate: 0.02, ..TrainConfig::default() };
        for _ in 0..8 {
            model.train_epoch(&train, &cfg, &mut rng).unwrap();
        }
        let acc = model.evaluate(&test).unwrap();
        assert!(acc > 0.5, "held-out accuracy {acc} should beat 0.1 chance comfortably");
    }

    #[test]
    fn textcnn_generalizes_on_news20_like() {
        let spec = TextSpec { train: 200, test: 80, ..TextSpec::default() };
        let (train, test) = news20_like(&spec, 12).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = TextCnn::new(spec.vocab, spec.seq_len, 32, 16, 20, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 32, learning_rate: 0.15, ..TrainConfig::default() };
        for _ in 0..10 {
            model.train_epoch(&train, &cfg, &mut rng).unwrap();
        }
        let acc = model.evaluate(&test).unwrap();
        assert!(acc > 0.4, "held-out accuracy {acc} should beat 0.05 chance comfortably");
    }

    #[test]
    fn fashion_is_harder_than_mnist() {
        // Same budget, same model: fashion-like accuracy should not exceed
        // mnist-like by a large margin (typically it is lower).
        let spec = ImageSpec { train: 200, test: 80, ..ImageSpec::default() };
        let (mtrain, mtest) = mnist_like(&spec, 21).unwrap();
        let (ftrain, ftest) = fashion_like(&spec, 21).unwrap();
        let cfg = TrainConfig { batch_size: 32, learning_rate: 0.02, ..TrainConfig::default() };
        let mut rng = StdRng::seed_from_u64(21);
        let mut m1 = LeNet5::with_input_size(16, 10, 0.0, &mut rng).unwrap();
        let mut m2 = m1.clone();
        for _ in 0..6 {
            m1.train_epoch(&mtrain, &cfg, &mut rng).unwrap();
            m2.train_epoch(&ftrain, &cfg, &mut rng).unwrap();
        }
        let acc_m = m1.evaluate(&mtest).unwrap();
        let acc_f = m2.evaluate(&ftest).unwrap();
        assert!(acc_m + 0.15 >= acc_f, "mnist {acc_m} vs fashion {acc_f}");
    }

    #[test]
    fn table3_meta_is_complete() {
        assert_eq!(DATASET_META.len(), 4);
        assert_eq!(DATASET_META[0].train_files, 60_000);
    }
}
