//! The three paper models: LeNet-5, a text CNN, and an LSTM classifier.
//!
//! All three implement [`Model`], the interface PipeTune's trials drive: one
//! call per epoch, real SGD updates inside, plus a numeric
//! [`ModelSignature`] that feeds the cluster cost model and the simulated
//! performance counters.

use pipetune_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{BatchIndices, Dataset};
use crate::layers::{Conv2d, Dense, Dropout, Embedding, Flatten, MaxPool2d, Relu};
use crate::loss::softmax_cross_entropy;
use crate::lstm::LstmCell;
use crate::metrics::EpochMetrics;
use crate::optim::{Sgd, TrainConfig};
use crate::{DnnError, Param};

/// Numeric characterisation of a model's computational behaviour.
///
/// The simulated PMU (`pipetune-perfmon`) and the cluster cost model
/// (`pipetune-cluster`) are driven by these numbers, so profiles and epoch
/// durations genuinely reflect the model architecture being trained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSignature {
    /// Floating-point operations per training example (forward + backward).
    pub flops_per_sample: f64,
    /// Total trainable parameters.
    pub params: usize,
    /// Approximate working-set size in bytes (parameters + one activation set).
    pub working_set_bytes: f64,
    /// Bytes of memory traffic per flop (memory intensity).
    pub memory_intensity: f64,
    /// Fraction of instructions that are branches (higher for control-heavy
    /// models such as the LSTM's gate logic).
    pub branch_ratio: f64,
}

/// A trainable workload model: the "model" half of the paper's workload tuple.
///
/// The trait is object-safe, so a trial drives whichever model its
/// workload names through one `&mut dyn Model`.
pub trait Model {
    /// Forward pass over the examples of `data` at `idx`; returns the
    /// logits. The model gathers the feature kind it reads (images or
    /// token rows). `train` enables dropout (drawing from `rng`) and caches
    /// activations for [`Model::backward`]; evaluation draws nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] when `data` holds the wrong feature kind or
    /// does not fit the model's shapes.
    fn forward(
        &mut self,
        data: &Dataset,
        idx: &[usize],
        train: bool,
        rng: &mut StdRng,
    ) -> Result<Tensor, DnnError>;

    /// Backward pass from the logits' gradient, accumulating parameter
    /// gradients for the optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when no training forward pass preceded it.
    fn backward(&mut self, grad_logits: &Tensor) -> Result<(), TensorError>;

    /// Runs one full epoch of mini-batch SGD over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] on configuration or feature-kind mismatches.
    fn train_epoch(
        &mut self,
        data: &Dataset,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> Result<EpochMetrics, DnnError> {
        cfg.validate()?;
        let sgd = Sgd::from_config(cfg);
        let plan = BatchIndices::plan(data.len(), cfg.batch_size, rng)?;
        let mut metrics = EpochMetrics::default();
        for idx in plan.iter() {
            let labels = data.gather_labels(idx);
            let logits = self.forward(data, idx, true, rng)?;
            let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
            let preds = logits.argmax_rows()?;
            let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
            self.backward(&grad)?;
            self.visit_params(&mut |p: &mut Param| sgd.step(p));
            metrics.accumulate(loss, correct, idx.len());
        }
        Ok(metrics.finalize())
    }

    /// Computes test accuracy (fraction correct) on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] on feature-kind mismatches.
    fn evaluate(&mut self, data: &Dataset) -> Result<f32, DnnError> {
        let preds = self.predictions(data)?;
        let correct = preds.iter().zip(data.labels()).filter(|(p, l)| p == l).count();
        Ok(correct as f32 / data.len() as f32)
    }

    /// Predicted class per example (evaluation mode).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] on feature-kind mismatches.
    fn predictions(&mut self, data: &Dataset) -> Result<Vec<usize>, DnnError> {
        // Evaluation mode never draws; the generator only fills the slot.
        let mut rng = StdRng::seed_from_u64(0);
        let n = data.len();
        let chunk = 256usize;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let logits = self.forward(data, &idx, false, &mut rng)?;
            out.extend(logits.argmax_rows()?);
            start = end;
        }
        Ok(out)
    }

    /// Full confusion matrix on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] on feature-kind mismatches.
    fn confusion(&mut self, data: &Dataset) -> Result<crate::ConfusionMatrix, DnnError> {
        let preds = self.predictions(data)?;
        crate::ConfusionMatrix::from_predictions(&preds, data.labels(), data.num_classes())
    }

    /// Total trainable parameter count.
    fn num_params(&self) -> usize;

    /// Numeric signature used by the simulated profiler and cost model.
    fn signature(&self) -> ModelSignature;

    /// Visits every trainable parameter.
    fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param));

    /// Snapshots every trainable parameter value, in visitation order —
    /// the "trained model" half of an HPT job's output (Fig. 6).
    fn export_weights(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p: &mut Param| out.push(p.value().clone()));
        out
    }

    /// Restores parameter values from a snapshot taken by
    /// [`Model::export_weights`] on an identically-shaped model.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when the snapshot has the wrong
    /// parameter count or any tensor has the wrong shape; a refused
    /// snapshot leaves the model as it was.
    fn import_weights(&mut self, weights: &[Tensor]) -> Result<(), DnnError> {
        import(self, weights, "weight", |w| w, |p, w| *p.value_mut() = w.clone())
    }

    /// Snapshots every trainable parameter *with* its optimizer state
    /// (gradient accumulator, momentum velocity and any second-moment
    /// buffer), in visitation order. Unlike [`Model::export_weights`],
    /// which captures values only, restoring this snapshot resumes
    /// training bit for bit.
    fn export_params(&mut self) -> Vec<Param> {
        let mut out = Vec::new();
        self.visit_params(&mut |p: &mut Param| out.push(p.clone()));
        out
    }

    /// Restores full parameter state from a snapshot taken by
    /// [`Model::export_params`] on an identically-shaped model.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when the snapshot has the wrong
    /// parameter count or any tensor has the wrong shape; a refused
    /// snapshot leaves the model as it was.
    fn import_params(&mut self, params: &[Param]) -> Result<(), DnnError> {
        import(self, params, "param", Param::value, |p, saved| *p = saved.clone())
    }
}

/// The checked walk behind [`Model::import_weights`] and
/// [`Model::import_params`]: the first visit compares the snapshot's count
/// and every shape with the model's, the second writes each entry over its
/// parameter, so a refused snapshot writes nothing. `noun` names an entry
/// in the error, `value` reads an entry's tensor.
fn import<M: Model + ?Sized, T>(
    model: &mut M,
    snapshot: &[T],
    noun: &str,
    value: fn(&T) -> &Tensor,
    write: fn(&mut Param, &T),
) -> Result<(), DnnError> {
    let mut idx = 0usize;
    let mut error = None;
    model.visit_params(&mut |p: &mut Param| {
        if error.is_none() {
            error = match snapshot.get(idx).map(value) {
                Some(w) if w.shape() == p.value().shape() => None,
                Some(w) => Some(format!(
                    "{noun} {idx} shape {:?} does not match {:?}",
                    w.shape().dims(),
                    p.value().shape().dims()
                )),
                None => Some(format!("snapshot ends at {idx} parameters")),
            };
        }
        idx += 1;
    });
    if let Some(reason) = error {
        return Err(DnnError::InvalidConfig { reason });
    }
    if idx != snapshot.len() {
        return Err(DnnError::InvalidConfig {
            reason: format!("snapshot has {} parameters, model has {idx}", snapshot.len()),
        });
    }
    let mut entries = snapshot.iter();
    model.visit_params(&mut |p: &mut Param| {
        if let Some(entry) = entries.next() {
            write(p, entry);
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// LeNet-5
// ---------------------------------------------------------------------------

/// LeNet-5 convolutional network (paper's Type-I model).
///
/// `conv(1→6, 5×5) → relu → pool2 → conv(6→16, 5×5) → relu → pool2 →
/// flatten → dense(120) → relu → dropout → dense(84) → relu → dense(classes)`.
#[derive(Debug, Clone)]
pub struct LeNet5 {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2d,
    flatten: Flatten,
    fc1: Dense,
    relu3: Relu,
    dropout: Dropout,
    fc2: Dense,
    relu4: Relu,
    fc3: Dense,
    input_size: usize,
    classes: usize,
}

impl LeNet5 {
    /// Builds LeNet-5 for square `input_size × input_size` one-channel images.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when the input size does not
    /// survive the two conv+pool stages (valid sizes satisfy
    /// `(s − 4) mod 2 = 0` and `((s − 4)/2 − 4) ≥ 2` and even — e.g. 16, 28),
    /// or when the dropout rate is invalid.
    pub fn with_input_size<R: Rng>(
        input_size: usize,
        classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Result<Self, DnnError> {
        let s1 = input_size.checked_sub(4).ok_or_else(|| DnnError::InvalidConfig {
            reason: format!("input size {input_size} too small for LeNet-5"),
        })?;
        if s1 % 2 != 0 {
            return Err(DnnError::InvalidConfig {
                reason: format!("input size {input_size} incompatible with 2x2 pooling"),
            });
        }
        let p1 = s1 / 2;
        let s2 = p1.checked_sub(4).filter(|&v| v >= 2 && v % 2 == 0).ok_or_else(|| {
            DnnError::InvalidConfig {
                reason: format!("input size {input_size} too small for second conv stage"),
            }
        })?;
        let p2 = s2 / 2;
        let flat = 16 * p2 * p2;
        Ok(LeNet5 {
            conv1: Conv2d::new(1, 6, 5, rng),
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(6, 16, 5, rng),
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            fc1: Dense::new(flat, 120, rng),
            relu3: Relu::new(),
            dropout: Dropout::new(dropout)?,
            fc2: Dense::new(120, 84, rng),
            relu4: Relu::new(),
            fc3: Dense::new(84, classes, rng),
            input_size,
            classes,
        })
    }
}

impl Model for LeNet5 {
    fn forward(
        &mut self,
        data: &Dataset,
        idx: &[usize],
        train: bool,
        rng: &mut StdRng,
    ) -> Result<Tensor, DnnError> {
        let x = data.gather_images(idx)?;
        let y = self.conv1.forward(&x, train)?;
        let y = self.relu1.forward(&y, train);
        let y = self.pool1.forward(&y, train)?;
        let y = self.conv2.forward(&y, train)?;
        let y = self.relu2.forward(&y, train);
        let y = self.pool2.forward(&y, train)?;
        let y = self.flatten.forward(&y)?;
        let y = self.fc1.forward(&y, train)?;
        let y = self.relu3.forward(&y, train);
        let y = self.dropout.forward(&y, train, rng);
        let y = self.fc2.forward(&y, train)?;
        let y = self.relu4.forward(&y, train);
        Ok(self.fc3.forward(&y, train)?)
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Result<(), TensorError> {
        let g = self.fc3.backward(grad_logits)?;
        let g = self.relu4.backward(&g)?;
        let g = self.fc2.backward(&g)?;
        let g = self.dropout.backward(&g)?;
        let g = self.relu3.backward(&g)?;
        let g = self.fc1.backward(&g)?;
        let g = self.flatten.backward(&g)?;
        let g = self.pool2.backward(&g)?;
        let g = self.relu2.backward(&g)?;
        let g = self.conv2.backward(&g)?;
        let g = self.pool1.backward(&g)?;
        let g = self.relu1.backward(&g)?;
        self.conv1.backward_with(&g, false)?;
        Ok(())
    }

    fn num_params(&self) -> usize {
        self.conv1.num_params()
            + self.conv2.num_params()
            + self.fc1.num_params()
            + self.fc2.num_params()
            + self.fc3.num_params()
    }

    fn signature(&self) -> ModelSignature {
        let s = self.input_size as f64;
        let c1_out = s - 4.0;
        let p1 = c1_out / 2.0;
        let c2_out = p1 - 4.0;
        let p2 = c2_out / 2.0;
        // 2 flops per MAC; backward ≈ 2× forward.
        let conv_flops =
            3.0 * (2.0 * 6.0 * c1_out * c1_out * 25.0 + 2.0 * 16.0 * 6.0 * c2_out * c2_out * 25.0);
        let flat = 16.0 * p2 * p2;
        let dense_flops = 3.0 * 2.0 * (flat * 120.0 + 120.0 * 84.0 + 84.0 * self.classes as f64);
        let params = self.num_params();
        ModelSignature {
            flops_per_sample: conv_flops + dense_flops,
            params,
            working_set_bytes: params as f64 * 4.0 + s * s * 4.0 * 8.0,
            memory_intensity: 0.3, // conv reuses weights heavily
            branch_ratio: 0.05,
        }
    }

    fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(v);
        self.conv2.visit_params(v);
        self.fc1.visit_params(v);
        self.fc2.visit_params(v);
        self.fc3.visit_params(v);
    }
}

// ---------------------------------------------------------------------------
// Text CNN
// ---------------------------------------------------------------------------

/// Convolutional text classifier (paper's Type-II `cnn` workload):
/// `embedding → 1-D conv (window 3) → relu → global max-pool → dropout →
/// dense(classes)`.
#[derive(Debug, Clone)]
pub struct TextCnn {
    embedding: Embedding,
    conv: Dense, // applied to im2col'd windows: [b*(t-w+1), w*dim] → [.., filters]
    relu: Relu,
    dropout: Dropout,
    fc: Dense,
    window: usize,
    filters: usize,
    seq_len: usize,
    // Cached by forward(train=true) for backward.
    pool_argmax: Option<Vec<usize>>,
    cached_batch: usize,
}

impl TextCnn {
    /// Builds a text CNN.
    ///
    /// * `vocab` — vocabulary size.
    /// * `seq_len` — fixed sequence length of the dataset.
    /// * `embed_dim` — embedding dimensionality (the paper's tunable, 50–300).
    /// * `filters` — number of convolution filters.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when the window does not fit in
    /// `seq_len` or the dropout rate is invalid.
    pub fn new<R: Rng>(
        vocab: usize,
        seq_len: usize,
        embed_dim: usize,
        filters: usize,
        classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Result<Self, DnnError> {
        let window = 3usize;
        if seq_len < window {
            return Err(DnnError::InvalidConfig {
                reason: format!("sequence length {seq_len} shorter than conv window {window}"),
            });
        }
        Ok(TextCnn {
            embedding: Embedding::new(vocab, embed_dim, rng),
            conv: Dense::new(window * embed_dim, filters, rng),
            relu: Relu::new(),
            dropout: Dropout::new(dropout)?,
            fc: Dense::new(filters, classes, rng),
            window,
            filters,
            seq_len,
            pool_argmax: None,
            cached_batch: 0,
        })
    }

    fn positions(&self) -> usize {
        self.seq_len - self.window + 1
    }

    fn im2col(&self, emb: &Tensor, b: usize) -> Result<Tensor, TensorError> {
        let d = self.embedding.dim();
        let t = self.seq_len;
        let w = self.window;
        let pos = self.positions();
        let mut out = Vec::with_capacity(b * pos * w * d);
        for bi in 0..b {
            for p in 0..pos {
                let start = (bi * t + p) * d;
                out.extend_from_slice(&emb.data()[start..start + w * d]);
            }
        }
        Tensor::from_vec(out, &[b * pos, w * d])
    }
}

impl Model for TextCnn {
    fn forward(
        &mut self,
        data: &Dataset,
        idx: &[usize],
        train: bool,
        rng: &mut StdRng,
    ) -> Result<Tensor, DnnError> {
        let batch = data.gather_tokens(idx)?;
        let b = batch.len();
        // The windows and their gradients are laid out for rows of
        // `seq_len` tokens; rows of another length are refused. A dataset's
        // rows share one length (`Dataset::new`), so the first row speaks
        // for the batch.
        let t = batch.first().map_or(self.seq_len, Vec::len);
        if t != self.seq_len {
            let (expected, actual) = (vec![b, self.seq_len], vec![b, t]);
            return Err(TensorError::ShapeMismatch { expected, actual }.into());
        }
        let emb = self.embedding.forward(&batch, train)?; // [b, t, d]
        let windows = self.im2col(&emb, b)?; // [b*pos, w*d]
        let conv_out = self.conv.forward(&windows, train)?; // [b*pos, f]
        let act = self.relu.forward(&conv_out, train);
        // Global max pool over positions: [b*pos, f] → [b, f].
        let pos = self.positions();
        let f = self.filters;
        let mut pooled = vec![f32::NEG_INFINITY; b * f];
        let mut argmax = vec![0usize; b * f];
        for bi in 0..b {
            for p in 0..pos {
                let row = (bi * pos + p) * f;
                for j in 0..f {
                    let v = act.data()[row + j];
                    if v > pooled[bi * f + j] {
                        pooled[bi * f + j] = v;
                        argmax[bi * f + j] = row + j;
                    }
                }
            }
        }
        self.pool_argmax = train.then_some(argmax);
        self.cached_batch = b;
        let pooled = Tensor::from_vec(pooled, &[b, f])?;
        let dropped = self.dropout.forward(&pooled, train, rng);
        Ok(self.fc.forward(&dropped, train)?)
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Result<(), TensorError> {
        let g = self.fc.backward(grad_logits)?;
        let g = self.dropout.backward(&g)?;
        let argmax = self.pool_argmax.take().ok_or(TensorError::Empty)?;
        let b = self.cached_batch;
        let pos = self.positions();
        let f = self.filters;
        // Scatter pooled gradients back to the conv activation positions.
        let mut gact = Tensor::zeros(&[b * pos, f]);
        for bi in 0..b {
            for j in 0..f {
                gact.data_mut()[argmax[bi * f + j]] += g.data()[bi * f + j];
            }
        }
        let g = self.relu.backward(&gact)?;
        // At most one position in `pos` per (sample, filter) is non-zero.
        let gwin = self.conv.backward_sparse(&g)?; // [b*pos, w*d]
                                                   // col2im: scatter window gradients back onto the embedded sequence.
        let d = self.embedding.dim();
        let t = self.seq_len;
        let w = self.window;
        let mut gemb = Tensor::zeros(&[b, t, d]);
        for bi in 0..b {
            for p in 0..pos {
                let src = (bi * pos + p) * w * d;
                let dst = (bi * t + p) * d;
                for k in 0..w * d {
                    gemb.data_mut()[dst + k] += gwin.data()[src + k];
                }
            }
        }
        self.embedding.backward(&gemb)
    }

    fn num_params(&self) -> usize {
        self.embedding.num_params() + self.conv.num_params() + self.fc.num_params()
    }

    fn signature(&self) -> ModelSignature {
        let d = self.embedding.dim() as f64;
        let t = self.seq_len as f64;
        let w = self.window as f64;
        let f = self.filters as f64;
        let flops = 3.0 * 2.0 * (t * w * d * f);
        let params = self.num_params();
        ModelSignature {
            flops_per_sample: flops,
            params,
            working_set_bytes: params as f64 * 4.0 + t * d * 4.0 * 4.0,
            memory_intensity: 1.6, // embedding lookups are gather-heavy
            branch_ratio: 0.14,
        }
    }

    fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params(v);
        self.conv.visit_params(v);
        self.fc.visit_params(v);
    }
}

// ---------------------------------------------------------------------------
// LSTM classifier
// ---------------------------------------------------------------------------

/// LSTM text classifier (paper's Type-II `lstm` workload):
/// `embedding → LSTM → dropout → dense(classes)`.
#[derive(Debug, Clone)]
pub struct LstmClassifier {
    embedding: Embedding,
    lstm: LstmCell,
    dropout: Dropout,
    fc: Dense,
    seq_len: usize,
}

impl LstmClassifier {
    /// Builds an LSTM classifier.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a zero sequence length or an
    /// invalid dropout rate.
    pub fn new<R: Rng>(
        vocab: usize,
        seq_len: usize,
        embed_dim: usize,
        hidden: usize,
        classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Result<Self, DnnError> {
        if seq_len == 0 {
            return Err(DnnError::InvalidConfig {
                reason: "sequence length must be positive".into(),
            });
        }
        Ok(LstmClassifier {
            embedding: Embedding::new(vocab, embed_dim, rng),
            lstm: LstmCell::new(embed_dim, hidden, rng),
            dropout: Dropout::new(dropout)?,
            fc: Dense::new(hidden, classes, rng),
            seq_len,
        })
    }
}

impl Model for LstmClassifier {
    fn forward(
        &mut self,
        data: &Dataset,
        idx: &[usize],
        train: bool,
        rng: &mut StdRng,
    ) -> Result<Tensor, DnnError> {
        let emb = self.embedding.forward(&data.gather_tokens(idx)?, train)?;
        let h = self.lstm.forward(&emb, train)?;
        let dropped = self.dropout.forward(&h, train, rng);
        Ok(self.fc.forward(&dropped, train)?)
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Result<(), TensorError> {
        let g = self.fc.backward(grad_logits)?;
        let g = self.dropout.backward(&g)?;
        let gemb = self.lstm.backward(&g)?;
        self.embedding.backward(&gemb)
    }

    fn num_params(&self) -> usize {
        self.embedding.num_params() + self.lstm.num_params() + self.fc.num_params()
    }

    fn signature(&self) -> ModelSignature {
        let d = self.embedding.dim() as f64;
        let h = self.lstm.hidden() as f64;
        let t = self.seq_len as f64;
        let flops = 3.0 * 2.0 * t * 4.0 * h * (d + h);
        let params = self.num_params();
        ModelSignature {
            flops_per_sample: flops,
            params,
            working_set_bytes: params as f64 * 4.0 + t * (d + 6.0 * h) * 4.0,
            memory_intensity: 1.4,
            branch_ratio: 0.18, // recurrent gate logic is branchier
        }
    }

    fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params(v);
        self.lstm.visit_params(v);
        self.fc.visit_params(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confusion::tests::{accuracy, total};
    use crate::dataset::Features;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Tiny separable image problem: class 0 bright top-left, class 1 bright
    /// bottom-right.
    fn toy_images(n: usize, size: usize, rng: &mut StdRng) -> Dataset {
        let mut data = Vec::with_capacity(n * size * size);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            for y in 0..size {
                for x in 0..size {
                    let hot = if class == 0 {
                        y < size / 2 && x < size / 2
                    } else {
                        y >= size / 2 && x >= size / 2
                    };
                    let base: f32 = if hot { 1.0 } else { 0.0 };
                    data.push(base + 0.1 * rng.gen::<f32>());
                }
            }
            labels.push(class);
        }
        let t = Tensor::from_vec(data, &[n, 1, size, size]).unwrap();
        Dataset::new(Features::Images(t), labels, 2).unwrap()
    }

    /// Tiny separable token problem: class c's sequences are dominated by
    /// tokens from band c.
    fn toy_tokens(n: usize, seq: usize, vocab: usize, classes: usize, rng: &mut StdRng) -> Dataset {
        let band = vocab / classes;
        let mut seqs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % classes;
            let s: Vec<u32> = (0..seq)
                .map(|_| {
                    if rng.gen::<f32>() < 0.8 {
                        (class * band + rng.gen_range(0..band)) as u32
                    } else {
                        rng.gen_range(0..vocab) as u32
                    }
                })
                .collect();
            seqs.push(s);
            labels.push(class);
        }
        Dataset::new(Features::Tokens(seqs), labels, classes).unwrap()
    }

    #[test]
    fn lenet_learns_separable_toy_problem() {
        let mut rng = StdRng::seed_from_u64(42);
        let data = toy_images(64, 16, &mut rng);
        let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 16, learning_rate: 0.05, ..TrainConfig::default() };
        let before = model.evaluate(&data).unwrap();
        for _ in 0..6 {
            model.train_epoch(&data, &cfg, &mut rng).unwrap();
        }
        let after = model.evaluate(&data).unwrap();
        assert!(after > before.max(0.8), "accuracy {before} → {after}");
    }

    /// `LeNet5::backward` does not ask conv1 for the input gradient nobody
    /// reads; a step that does ask must accumulate the very same bits into
    /// every parameter.
    #[test]
    fn lenet_step_is_bit_equal_with_and_without_the_first_input_gradient() {
        let mut rng = StdRng::seed_from_u64(17);
        let data = toy_images(16, 16, &mut rng);
        let idx: Vec<usize> = (0..16).collect();
        let x = data.gather_images(&idx).unwrap();
        let labels = data.gather_labels(&idx);
        let mut skipping = LeNet5::with_input_size(16, 2, 0.25, &mut rng).unwrap();
        let mut asking = skipping.clone();

        let mut grads = Vec::new();
        for (model, ask) in [(&mut skipping, false), (&mut asking, true)] {
            let logits = model.forward(&data, &idx, true, &mut StdRng::seed_from_u64(5)).unwrap();
            let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            if ask {
                // `LeNet5::backward`, but conv1 computes ∂L/∂x as well.
                let g = model.fc3.backward(&grad).unwrap();
                let g = model.relu4.backward(&g).unwrap();
                let g = model.fc2.backward(&g).unwrap();
                let g = model.dropout.backward(&g).unwrap();
                let g = model.relu3.backward(&g).unwrap();
                let g = model.fc1.backward(&g).unwrap();
                let g = model.flatten.backward(&g).unwrap();
                let g = model.pool2.backward(&g).unwrap();
                let g = model.relu2.backward(&g).unwrap();
                let g = model.conv2.backward(&g).unwrap();
                let g = model.pool1.backward(&g).unwrap();
                let g = model.relu1.backward(&g).unwrap();
                let gx = model.conv1.backward(&g).unwrap();
                assert_eq!(gx.shape(), x.shape());
            } else {
                model.backward(&grad).unwrap();
            }
            let mut bits: Vec<Vec<u32>> = Vec::new();
            model.visit_params(&mut |p: &mut crate::Param| {
                bits.push(p.grad().data().iter().map(|v| v.to_bits()).collect());
            });
            grads.push(bits);
        }
        assert_eq!(grads[0].len(), 10, "five layers, kernel and bias each");
        assert!(grads[0].iter().flatten().any(|&b| b != 0), "the step produced gradients");
        assert_eq!(grads[0], grads[1]);
    }

    #[test]
    fn lenet_rejects_bad_input_size() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(LeNet5::with_input_size(12, 2, 0.0, &mut rng).is_err());
        assert!(LeNet5::with_input_size(9, 2, 0.0, &mut rng).is_err());
        assert!(LeNet5::with_input_size(28, 10, 0.0, &mut rng).is_ok());
    }

    #[test]
    fn textcnn_learns_separable_tokens() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = toy_tokens(80, 12, 40, 4, &mut rng);
        let mut model = TextCnn::new(40, 12, 16, 8, 4, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 16, learning_rate: 0.1, ..TrainConfig::default() };
        for _ in 0..8 {
            model.train_epoch(&data, &cfg, &mut rng).unwrap();
        }
        let acc = model.evaluate(&data).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn lstm_classifier_learns_separable_tokens() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = toy_tokens(60, 8, 20, 2, &mut rng);
        let mut model = LstmClassifier::new(20, 8, 8, 12, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 12, learning_rate: 0.1, ..TrainConfig::default() };
        for _ in 0..10 {
            model.train_epoch(&data, &cfg, &mut rng).unwrap();
        }
        let acc = model.evaluate(&data).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn weight_snapshots_round_trip_predictions() {
        let mut rng = StdRng::seed_from_u64(77);
        let data = toy_images(48, 16, &mut rng);
        let mut trained = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 16, learning_rate: 0.05, ..TrainConfig::default() };
        for _ in 0..4 {
            trained.train_epoch(&data, &cfg, &mut rng).unwrap();
        }
        let weights = trained.export_weights();
        // A fresh model with different init must reproduce the trained
        // model's predictions after import.
        let mut rng2 = StdRng::seed_from_u64(12345);
        let mut fresh = LeNet5::with_input_size(16, 2, 0.0, &mut rng2).unwrap();
        assert_ne!(fresh.predictions(&data).unwrap(), trained.predictions(&data).unwrap());
        fresh.import_weights(&weights).unwrap();
        assert_eq!(fresh.predictions(&data).unwrap(), trained.predictions(&data).unwrap());
    }

    #[test]
    fn weight_import_rejects_mismatched_snapshots() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut a = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let mut b = TextCnn::new(40, 12, 16, 8, 4, 0.0, &mut rng).unwrap();
        let weights = b.export_weights();
        assert!(a.import_weights(&weights).is_err());
        assert!(a.import_weights(&[]).is_err());
    }

    /// A snapshot whose second tensor is misshapen is refused before its
    /// first is written: the model keeps every bit it had.
    #[test]
    fn a_refused_snapshot_leaves_the_model_as_it_was() {
        let mut rng = StdRng::seed_from_u64(79);
        let data = toy_images(32, 16, &mut rng);
        let cfg = TrainConfig { batch_size: 16, learning_rate: 0.05, ..TrainConfig::default() };
        let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let mut donor = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        model.train_epoch(&data, &cfg, &mut rng).unwrap();
        donor.train_epoch(&data, &cfg, &mut rng).unwrap();
        let bits = |params: &[Param]| -> Vec<u32> {
            let tensors = params.iter().flat_map(|p| [p.value(), p.grad()]);
            tensors.flat_map(Tensor::data).map(|v| v.to_bits()).collect()
        };
        let before = model.export_params();
        assert_ne!(donor.export_weights()[0], before[0].value().clone());

        let mut weights = donor.export_weights();
        weights[1] = Tensor::zeros(&[3]);
        assert_eq!(
            model.import_weights(&weights).unwrap_err().to_string(),
            "invalid training config: weight 1 shape [3] does not match [6]"
        );
        assert_eq!(bits(&model.export_params()), bits(&before));
        assert_eq!(model.export_params(), before);

        let mut params = donor.export_params();
        params[1] = Param::new(Tensor::zeros(&[3]));
        assert_eq!(
            model.import_params(&params).unwrap_err().to_string(),
            "invalid training config: param 1 shape [3] does not match [6]"
        );
        assert_eq!(bits(&model.export_params()), bits(&before));
        assert_eq!(model.export_params(), before);
    }

    /// Token rows of another length than the model's `seq_len` are refused
    /// with both lengths: shorter rows used to index past the embedded
    /// batch, longer ones to read windows across sample boundaries.
    #[test]
    fn textcnn_refuses_token_rows_of_another_length() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = TextCnn::new(40, 12, 8, 4, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 4, ..TrainConfig::default() };
        let refused = |b: usize, len: usize| {
            let (expected, actual) = (vec![b, 12], vec![b, len]);
            DnnError::Tensor(TensorError::ShapeMismatch { expected, actual })
        };
        for len in [4, 20] {
            let data = toy_tokens(8, len, 40, 2, &mut rng);
            assert_eq!(model.evaluate(&data), Err(refused(8, len)));
            assert_eq!(model.train_epoch(&data, &cfg, &mut rng).unwrap_err(), refused(4, len));
        }
        let data = toy_tokens(8, 12, 40, 2, &mut rng);
        assert!(model.train_epoch(&data, &cfg, &mut rng).is_ok());
    }

    /// The three models behind one `&mut dyn Model`: what a trial does to
    /// each (train, evaluate, snapshot and restore) names no model type.
    #[test]
    fn all_three_models_train_and_restore_through_dyn_model() {
        let mut rng = StdRng::seed_from_u64(13);
        let images = toy_images(32, 16, &mut rng);
        let tokens = toy_tokens(32, 8, 20, 2, &mut rng);
        let mut lenet = LeNet5::with_input_size(16, 2, 0.25, &mut rng).unwrap();
        let mut cnn = TextCnn::new(20, 8, 8, 4, 2, 0.25, &mut rng).unwrap();
        let mut lstm = LstmClassifier::new(20, 8, 8, 6, 2, 0.25, &mut rng).unwrap();
        let models: [(&mut dyn Model, &Dataset); 3] =
            [(&mut lenet, &images), (&mut cnn, &tokens), (&mut lstm, &tokens)];
        let cfg = TrainConfig { batch_size: 8, learning_rate: 0.05, ..TrainConfig::default() };
        for (model, data) in models {
            let metrics = model.train_epoch(data, &cfg, &mut rng).unwrap();
            assert_eq!(metrics.iterations, 4);
            assert!(metrics.loss.is_finite());
            let (weights, params) = (model.export_weights(), model.export_params());
            let (predictions, accuracy) = (model.predictions(data).unwrap(), model.evaluate(data));
            model.train_epoch(data, &cfg, &mut rng).unwrap();
            model.import_params(&params).unwrap();
            assert_eq!(model.export_params(), params);
            model.train_epoch(data, &cfg, &mut rng).unwrap();
            model.import_weights(&weights).unwrap();
            assert_eq!(model.predictions(data).unwrap(), predictions);
            assert_eq!(model.evaluate(data), accuracy);
            assert_eq!(model.signature().params, model.num_params());
            assert_eq!(weights.len(), params.len());
        }
    }

    #[test]
    fn confusion_matrix_is_consistent_with_accuracy() {
        let mut rng = StdRng::seed_from_u64(42);
        let data = toy_images(64, 16, &mut rng);
        let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig { batch_size: 16, learning_rate: 0.05, ..TrainConfig::default() };
        for _ in 0..6 {
            model.train_epoch(&data, &cfg, &mut rng).unwrap();
        }
        let acc = model.evaluate(&data).unwrap();
        let cm = model.confusion(&data).unwrap();
        assert!((accuracy(&cm) - f64::from(acc)).abs() < 1e-6);
        assert_eq!(total(&cm), 64);
        assert!(cm.macro_f1() > 0.5);
    }

    #[test]
    fn wrong_feature_kind_is_reported() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = toy_tokens(8, 8, 20, 2, &mut rng);
        let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let cfg = TrainConfig::default();
        assert!(matches!(
            model.train_epoch(&data, &cfg, &mut rng),
            Err(DnnError::WrongFeatureKind { .. })
        ));
    }

    #[test]
    fn signatures_scale_with_architecture() {
        let mut rng = StdRng::seed_from_u64(10);
        let small = TextCnn::new(100, 20, 50, 8, 20, 0.0, &mut rng).unwrap();
        let large = TextCnn::new(100, 20, 300, 8, 20, 0.0, &mut rng).unwrap();
        assert!(large.signature().flops_per_sample > small.signature().flops_per_sample);
        assert!(large.num_params() > small.num_params());
    }

    #[test]
    fn larger_batch_means_fewer_iterations() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = toy_images(64, 16, &mut rng);
        let mut model = LeNet5::with_input_size(16, 2, 0.0, &mut rng).unwrap();
        let m_small = model
            .train_epoch(&data, &TrainConfig { batch_size: 8, ..TrainConfig::default() }, &mut rng)
            .unwrap();
        let m_large = model
            .train_epoch(&data, &TrainConfig { batch_size: 32, ..TrainConfig::default() }, &mut rng)
            .unwrap();
        assert_eq!(m_small.iterations, 8);
        assert_eq!(m_large.iterations, 2);
    }
}
