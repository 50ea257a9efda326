use pipetune_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::DnnError;

/// Feature storage for a dataset: dense image tensors or token sequences.
#[derive(Debug, Clone, PartialEq)]
pub enum Features {
    /// `[n, channels, height, width]` image tensor.
    Images(Tensor),
    /// One token-id sequence per example (all the same length for batching).
    Tokens(Vec<Vec<u32>>),
}

impl Features {
    /// Number of examples stored.
    pub(crate) fn len(&self) -> usize {
        match self {
            Features::Images(t) => t.shape().dims().first().copied().unwrap_or(0),
            Features::Tokens(seqs) => seqs.len(),
        }
    }

    /// Returns `true` when there are no examples.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short static name used in error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Features::Images(_) => "image",
            Features::Tokens(_) => "token",
        }
    }
}

/// A labelled dataset: features plus one class label per example.
///
/// This is the paper's "dataset" half of a workload tuple (§3.3).
///
/// # Example
///
/// ```
/// use pipetune_dnn::{Dataset, Features};
/// use pipetune_tensor::Tensor;
///
/// let data = Dataset::new(
///     Features::Images(Tensor::zeros(&[4, 1, 8, 8])),
///     vec![0, 1, 0, 1],
///     2,
/// )?;
/// assert_eq!(data.len(), 4);
/// # Ok::<(), pipetune_dnn::DnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Features,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating feature/label agreement.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] when the counts disagree, the
    /// dataset is empty, a label is out of range, or token sequences have
    /// inconsistent lengths.
    pub fn new(
        features: Features,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DnnError> {
        if features.len() != labels.len() {
            return Err(DnnError::InvalidDataset {
                reason: format!("{} features but {} labels", features.len(), labels.len()),
            });
        }
        if features.is_empty() {
            return Err(DnnError::InvalidDataset { reason: "dataset is empty".into() });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DnnError::InvalidDataset {
                reason: format!("label {bad} out of range for {num_classes} classes"),
            });
        }
        if let Features::Tokens(seqs) = &features {
            let len0 = seqs[0].len();
            if seqs.iter().any(|s| s.len() != len0) {
                return Err(DnnError::InvalidDataset {
                    reason: "token sequences have inconsistent lengths".into(),
                });
            }
        }
        Ok(Dataset { features, labels, num_classes })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset has no examples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct class labels.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The stored features.
    pub fn features(&self) -> &Features {
        &self.features
    }

    /// The label of each example.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers image rows by index into an owned mini-batch tensor.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::WrongFeatureKind`] on token datasets.
    pub fn gather_images(&self, idx: &[usize]) -> Result<Tensor, DnnError> {
        match &self.features {
            Features::Images(t) => {
                let dims = t.shape().dims();
                let row: usize = dims[1..].iter().product();
                let mut out = Vec::with_capacity(idx.len() * row);
                for &i in idx {
                    out.extend_from_slice(&t.data()[i * row..(i + 1) * row]);
                }
                let mut bdims = dims.to_vec();
                bdims[0] = idx.len();
                Ok(Tensor::from_vec(out, &bdims)?)
            }
            f => Err(DnnError::WrongFeatureKind { expected: "image", actual: f.kind() }),
        }
    }

    /// Gathers token sequences by index.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::WrongFeatureKind`] on image datasets.
    pub(crate) fn gather_tokens(&self, idx: &[usize]) -> Result<Vec<Vec<u32>>, DnnError> {
        match &self.features {
            Features::Tokens(seqs) => Ok(idx.iter().map(|&i| seqs[i].clone()).collect()),
            f => Err(DnnError::WrongFeatureKind { expected: "token", actual: f.kind() }),
        }
    }

    /// Gathers labels by index.
    pub fn gather_labels(&self, idx: &[usize]) -> Vec<usize> {
        idx.iter().map(|&i| self.labels[i]).collect()
    }
}

/// Shuffled mini-batch index plan for one epoch.
///
/// Produces index slices of at most `batch_size` examples covering the whole
/// dataset exactly once, in a seeded random order.
#[derive(Debug, Clone)]
pub struct BatchIndices {
    order: Vec<usize>,
    batch_size: usize,
}

impl BatchIndices {
    /// Plans one epoch of shuffled batches.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when `batch_size` is zero.
    pub fn plan<R: Rng>(n: usize, batch_size: usize, rng: &mut R) -> Result<Self, DnnError> {
        if batch_size == 0 {
            return Err(DnnError::InvalidConfig { reason: "batch size must be positive".into() });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        Ok(BatchIndices { order, batch_size })
    }

    /// Number of batches in the plan.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Iterator over index slices, one per batch.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.order.chunks(self.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn image_dataset(n: usize) -> Dataset {
        let t = Tensor::from_vec((0..n * 4).map(|x| x as f32).collect(), &[n, 1, 2, 2]).unwrap();
        Dataset::new(Features::Images(t), (0..n).map(|i| i % 2).collect(), 2).unwrap()
    }

    #[test]
    fn rejects_label_out_of_range() {
        let t = Tensor::zeros(&[2, 1, 2, 2]);
        let err = Dataset::new(Features::Images(t), vec![0, 5], 2).unwrap_err();
        assert!(matches!(err, DnnError::InvalidDataset { .. }));
    }

    #[test]
    fn rejects_count_mismatch_and_empty() {
        let t = Tensor::zeros(&[2, 1, 2, 2]);
        assert!(Dataset::new(Features::Images(t.clone()), vec![0], 2).is_err());
        let empty = Tensor::zeros(&[0, 1, 2, 2]);
        assert!(Dataset::new(Features::Images(empty), vec![], 2).is_err());
    }

    #[test]
    fn rejects_ragged_token_sequences() {
        let f = Features::Tokens(vec![vec![1, 2], vec![3]]);
        assert!(Dataset::new(f, vec![0, 1], 2).is_err());
    }

    #[test]
    fn gather_images_picks_rows() {
        let d = image_dataset(3);
        let b = d.gather_images(&[2, 0]).unwrap();
        assert_eq!(b.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(&b.data()[..4], &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn gather_wrong_kind_errors() {
        let d = image_dataset(2);
        assert!(matches!(d.gather_tokens(&[0]), Err(DnnError::WrongFeatureKind { .. })));
    }

    #[test]
    fn batch_plan_covers_every_index_once() {
        let mut rng = StdRng::seed_from_u64(4);
        let plan = BatchIndices::plan(10, 3, &mut rng).unwrap();
        assert_eq!(plan.num_batches(), 4);
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batch_plan_rejects_zero_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(BatchIndices::plan(10, 0, &mut rng).is_err());
    }
}
