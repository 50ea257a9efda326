//! Probes of the layers that do the payload's arithmetic: `tensor`, `dnn`,
//! `data` and `kernels`.
//!
//! Shapes are the ones the workloads issue: `LeNet5::with_input_size(16)`,
//! `TextCnn` (sequence 24, window 3, 12 filters) and `LstmCell` (sequence
//! 12, hidden 16) at embedding width 32, for mini-batches of 32 and 256 —
//! the per-trial training sets hold 256 / 240 / 160 examples, so the search
//! space's batch sizes 256 and 1024 both mean "the whole set in one step".
//! A `tensor.*_us` or `dnn.<layer>.*_us` metric is the time of one training
//! step's worth of those calls at batch 32 plus one at batch 256.

use std::collections::BTreeMap;

use pipetune::prelude::*;
use pipetune::{EpochWorkload, HyperParams};
use pipetune_data::{fashion_like, mnist_like, news20_like, ImageSpec, TextSpec};
use pipetune_dnn::{
    softmax_cross_entropy, BatchIndices, Conv2d, Dataset, Dense, Dropout, Embedding, Flatten,
    LeNet5, LstmCell, LstmClassifier, MaxPool2d, Model, Param, Relu, Sgd, TextCnn, TrainConfig,
};
use pipetune_tensor::{
    conv2d_backward, conv2d_gemm_with, im2col_with, max_pool2d, max_pool2d_backward, Tensor,
    Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Effort, Ledger};
use crate::common::{subseed, timed, BenchResult};
use crate::stats::median;

const BATCHES: [usize; 2] = [32, 256];
const EMBED: usize = 32;
const DROPOUT: f32 = 0.25;
/// The search space's batch sizes (`HyperSpace::paper`).
const SEARCH_BATCHES: [usize; 4] = [32, 64, 256, 1024];

fn train_config(batch_size: usize) -> TrainConfig {
    TrainConfig {
        batch_size,
        learning_rate: 0.01,
        momentum: 0.9,
        weight_decay: 0.0,
    }
}

/// The datasets the workloads generate per trial, at their sizes.
struct Datasets {
    image: (Dataset, Dataset),
    cnn_text: (Dataset, Dataset),
    lstm_text: (Dataset, Dataset),
}

fn image_spec() -> ImageSpec {
    ImageSpec {
        train: 256,
        test: 96,
        ..ImageSpec::default()
    }
}

fn cnn_text_spec() -> TextSpec {
    TextSpec {
        train: 240,
        test: 80,
        ..TextSpec::default()
    }
}

fn lstm_text_spec() -> TextSpec {
    TextSpec {
        train: 160,
        test: 64,
        seq_len: 12,
        ..TextSpec::default()
    }
}

fn probe_data(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<Datasets> {
    let calls = 12;
    let mnist = effort.per_call(calls, || mnist_like(&image_spec(), seed));
    let fashion = effort.per_call(calls, || fashion_like(&image_spec(), seed));
    let cnn = effort.per_call(calls, || news20_like(&cnn_text_spec(), seed));
    let lstm = effort.per_call(calls, || news20_like(&lstm_text_spec(), seed));
    let m = &mut ledger.metrics;
    m.insert("data.mnist_like_ms", mnist * 1e3);
    m.insert("data.fashion_like_ms", fashion * 1e3);
    m.insert("data.news20_like_ms", (cnn + lstm) * 0.5e3);
    let units = &mut ledger.units.data_gen_s;
    units.insert("lenet/mnist", mnist);
    units.insert("lenet/fashion", fashion);
    units.insert("cnn/news20", cnn);
    units.insert("lstm/news20", lstm);
    Ok(Datasets {
        image: mnist_like(&image_spec(), seed)?,
        cnn_text: news20_like(&cnn_text_spec(), seed)?,
        lstm_text: news20_like(&lstm_text_spec(), seed)?,
    })
}

/// Seconds one training step spends in each kind of public layer.
#[derive(Debug, Default, Clone, Copy)]
struct LayerSecs {
    conv_fwd: f64,
    conv_bwd: f64,
    dense_fwd: f64,
    dense_bwd: f64,
    pool_fwd: f64,
    pool_bwd: f64,
    loss: f64,
    sgd: f64,
}

impl LayerSecs {
    fn total(&self) -> f64 {
        self.conv_fwd
            + self.conv_bwd
            + self.dense_fwd
            + self.dense_bwd
            + self.pool_fwd
            + self.pool_bwd
            + self.loss
            + self.sgd
    }

    fn add(&mut self, other: &LayerSecs) {
        self.conv_fwd += other.conv_fwd;
        self.conv_bwd += other.conv_bwd;
        self.dense_fwd += other.dense_fwd;
        self.dense_bwd += other.dense_bwd;
        self.pool_fwd += other.pool_fwd;
        self.pool_bwd += other.pool_bwd;
        self.loss += other.loss;
        self.sgd += other.sgd;
    }
}

/// Runs `f`, adding the seconds it took to `acc`.
fn clocked<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let (secs, out) = timed(f);
    *acc += secs;
    out
}

/// What a convolution saw during a real training step: its input and the
/// gradient that came back to it. The gradient is mostly zeros (max-pooling
/// routes it to one pixel in four, ReLU drops more), and `conv2d_backward`
/// skips zeros, so a dense random gradient would overstate its cost.
struct ConvCase {
    x: Tensor,
    grad: Tensor,
}

/// LeNet-5 rebuilt from the public layers, so a training step can be timed
/// layer by layer with the activations and gradients real training has.
struct LenetReplica {
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
}

impl LenetReplica {
    fn new(rng: &mut StdRng) -> BenchResult<Self> {
        Ok(LenetReplica {
            conv1: Conv2d::new(1, 6, 5, rng),
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(6, 16, 5, rng),
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            fc1: Dense::new(16, 120, rng),
            relu3: Relu::new(),
            dropout: Dropout::new(DROPOUT)?,
            fc2: Dense::new(120, 84, rng),
            relu4: Relu::new(),
            fc3: Dense::new(84, 10, rng),
        })
    }

    /// One training step, the layers in `LeNet5`'s order. Returns what the
    /// two convolutions saw.
    fn step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        sgd: &Sgd,
        rng: &mut StdRng,
        t: &mut LayerSecs,
    ) -> BenchResult<[ConvCase; 2]> {
        let y = clocked(&mut t.conv_fwd, || self.conv1.forward(x, true))?;
        let y = self.relu1.forward(&y, true);
        let x2 = clocked(&mut t.pool_fwd, || self.pool1.forward(&y, true))?;
        let y = clocked(&mut t.conv_fwd, || self.conv2.forward(&x2, true))?;
        let y = self.relu2.forward(&y, true);
        let y = clocked(&mut t.pool_fwd, || self.pool2.forward(&y, true))?;
        let y = self.flatten.forward(&y)?;
        let y = clocked(&mut t.dense_fwd, || self.fc1.forward(&y, true))?;
        let y = self.relu3.forward(&y, true);
        let y = self.dropout.forward(&y, true, rng);
        let y = clocked(&mut t.dense_fwd, || self.fc2.forward(&y, true))?;
        let y = self.relu4.forward(&y, true);
        let logits = clocked(&mut t.dense_fwd, || self.fc3.forward(&y, true))?;
        let (_, grad) = clocked(&mut t.loss, || softmax_cross_entropy(&logits, labels))?;

        let g = clocked(&mut t.dense_bwd, || self.fc3.backward(&grad))?;
        let g = self.relu4.backward(&g)?;
        let g = clocked(&mut t.dense_bwd, || self.fc2.backward(&g))?;
        let g = self.dropout.backward(&g)?;
        let g = self.relu3.backward(&g)?;
        let g = clocked(&mut t.dense_bwd, || self.fc1.backward(&g))?;
        let g = self.flatten.backward(&g)?;
        let g = clocked(&mut t.pool_bwd, || self.pool2.backward(&g))?;
        let g2 = self.relu2.backward(&g)?;
        let g = clocked(&mut t.conv_bwd, || self.conv2.backward(&g2))?;
        let g = clocked(&mut t.pool_bwd, || self.pool1.backward(&g))?;
        let g1 = self.relu1.backward(&g)?;
        clocked(&mut t.conv_bwd, || self.conv1.backward(&g1))?;

        clocked(&mut t.sgd, || {
            let mut visit = |p: &mut Param| sgd.step(p);
            self.conv1.visit_params(&mut visit);
            self.conv2.visit_params(&mut visit);
            self.fc1.visit_params(&mut visit);
            self.fc2.visit_params(&mut visit);
            self.fc3.visit_params(&mut visit);
        });
        Ok([
            ConvCase {
                x: x.clone(),
                grad: g1,
            },
            ConvCase { x: x2, grad: g2 },
        ])
    }
}

/// What the replica measured at one batch size.
struct ReplicaRun {
    /// Median seconds per step in each kind of layer.
    per_step: LayerSecs,
    /// Steps one epoch over the image set takes.
    steps_per_epoch: usize,
    /// The convolutions' inputs and gradients in the last step.
    convs: [ConvCase; 2],
}

/// Trains the replica on the image set for a few epochs at `batch`.
fn run_replica(
    effort: Effort,
    data: &Dataset,
    batch: usize,
    rng: &mut StdRng,
) -> BenchResult<ReplicaRun> {
    let mut replica = LenetReplica::new(rng)?;
    let sgd = Sgd::from_config(&train_config(batch));
    let mut per_step: Vec<LayerSecs> = Vec::new();
    let mut convs = None;
    let mut steps_per_epoch = 0;
    for _ in 0..=effort.batches {
        let plan = BatchIndices::plan(data.len(), batch, rng)?;
        steps_per_epoch = plan.num_batches();
        for idx in plan.iter() {
            let x = data.gather_images(idx)?;
            let labels = data.gather_labels(idx);
            let mut t = LayerSecs::default();
            convs = Some(replica.step(&x, &labels, &sgd, rng, &mut t)?);
            per_step.push(t);
        }
    }
    // The first epoch warms the layers' workspaces up.
    let timed_steps = &per_step[steps_per_epoch..];
    let med = |f: fn(&LayerSecs) -> f64| median(&timed_steps.iter().map(f).collect::<Vec<_>>());
    Ok(ReplicaRun {
        per_step: LayerSecs {
            conv_fwd: med(|t| t.conv_fwd),
            conv_bwd: med(|t| t.conv_bwd),
            dense_fwd: med(|t| t.dense_fwd),
            dense_bwd: med(|t| t.dense_bwd),
            pool_fwd: med(|t| t.pool_fwd),
            pool_bwd: med(|t| t.pool_bwd),
            loss: med(|t| t.loss),
            sgd: med(|t| t.sgd),
        },
        steps_per_epoch,
        convs: convs.ok_or("the image set is empty")?,
    })
}

/// One GEMM shape `[m, k] x [k, n]` a model issues `count` times a step.
struct Gemm {
    model: &'static str,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
}

/// Every dense product one training step of the three models issues.
fn gemm_inventory(batch: usize) -> Vec<Gemm> {
    let g = |model, m, k, n, count| Gemm {
        model,
        m,
        k,
        n,
        count,
    };
    vec![
        g("lenet", batch, 16, 120, 1),
        g("lenet", batch, 120, 84, 1),
        g("lenet", batch, 84, 10, 1),
        g("cnn", batch * 22, 3 * EMBED, 12, 1),
        g("cnn", batch, 12, 20, 1),
        g("lstm", batch, EMBED, 64, 12),
        g("lstm", batch, 16, 64, 12),
        g("lstm", batch, 16, 20, 1),
    ]
}

/// Calls per batch of a probe whose single call costs `flops`.
fn calls_for(flops: f64) -> usize {
    ((4.0e6 / flops.max(1.0)) as usize).clamp(3, 200)
}

/// Seconds of tensor-kernel time per training step, by model and batch.
type TensorStep = BTreeMap<(&'static str, usize), f64>;

fn probe_tensor(
    effort: Effort,
    replicas: &[(usize, ReplicaRun)],
    rng: &mut StdRng,
    ledger: &mut Ledger,
) -> BenchResult<TensorStep> {
    let mut ws = Workspace::new();
    let (mut nn, mut tn, mut nt, mut flops) = (0.0, 0.0, 0.0, 0.0);
    let mut step = TensorStep::new();
    for batch in BATCHES {
        for g in gemm_inventory(batch) {
            let a = Tensor::randn(&[g.m, g.k], 1.0, rng);
            let w = Tensor::randn(&[g.k, g.n], 1.0, rng);
            let grad = Tensor::randn(&[g.m, g.n], 1.0, rng);
            let one = 2.0 * (g.m * g.k * g.n) as f64;
            let calls = calls_for(one);
            let count = g.count as f64;
            let t_nn = count * effort.per_call(calls, || a.matmul_with(&w, &mut ws));
            let t_tn = count * effort.per_call(calls, || a.matmul_tn_with(&grad, &mut ws));
            let t_nt = count * effort.per_call(calls, || grad.matmul_nt_with(&w, &mut ws));
            nn += t_nn;
            tn += t_tn;
            nt += t_nt;
            flops += 3.0 * count * one;
            *step.entry((g.model, batch)).or_insert(0.0) += t_nn + t_tn + t_nt;
        }
    }

    // LeNet5(16): conv1 1->6 on 16x16, conv2 6->16 on 6x6, both 5x5, on the
    // inputs and gradients the replica's last step saw.
    let (mut im2col, mut fwd, mut bwd, mut pool) = (0.0, 0.0, 0.0, 0.0);
    for (batch, replica) in replicas {
        for (case, (cin, cout)) in replica.convs.iter().zip([(1usize, 6usize), (6, 16)]) {
            let n = case.x.shape().dims()[0];
            let out = case.grad.shape().dims()[2];
            let w = Tensor::randn(&[cout, cin, 5, 5], 0.1, rng);
            let b = Tensor::zeros(&[cout]);
            let one = 2.0 * (n * out * out * cout * cin * 25) as f64;
            let calls = calls_for(one);
            let mut cols = Tensor::zeros(&[1]);
            let t_im2col = effort.per_call(calls, || im2col_with(&case.x, 5, 5, &mut cols));
            let t_fwd = effort.per_call(calls, || conv2d_gemm_with(&case.x, &w, &b, &mut ws));
            let t_bwd = effort.per_call(calls, || conv2d_backward(&case.x, &w, &case.grad));
            let activation = Tensor::randn(&[n, cout, out, out], 1.0, rng);
            let (_, argmax) = max_pool2d(&activation, 2)?;
            let pooled = Tensor::randn(&[n, cout, out / 2, out / 2], 1.0, rng);
            let dims = [n, cout, out, out];
            let t_pool = effort.per_call(calls, || max_pool2d(&activation, 2))
                + effort.per_call(calls, || max_pool2d_backward(&pooled, &argmax, &dims));
            im2col += t_im2col;
            fwd += t_fwd;
            bwd += t_bwd;
            pool += t_pool;
            flops += 3.0 * one;
            *step.entry(("lenet", *batch)).or_insert(0.0) += t_fwd + t_bwd + t_pool;
        }
    }
    let m = &mut ledger.metrics;
    m.insert("tensor.matmul_nn_us", nn * 1e6);
    m.insert("tensor.matmul_tn_us", tn * 1e6);
    m.insert("tensor.matmul_nt_us", nt * 1e6);
    m.insert("tensor.im2col_us", im2col * 1e6);
    m.insert("tensor.conv2d_fwd_us", fwd * 1e6);
    m.insert("tensor.conv2d_bwd_us", bwd * 1e6);
    m.insert("tensor.maxpool_us", pool * 1e6);
    m.insert("tensor.flops", flops);
    Ok(step)
}

/// Median seconds of one training epoch at each batch size, and of one
/// evaluation, for a freshly built model.
fn model_times<M: Model + Clone>(
    effort: Effort,
    fresh: &M,
    data: &(Dataset, Dataset),
    batches: &[usize],
    rng: &mut StdRng,
) -> BenchResult<(Vec<f64>, f64)> {
    let mut epochs = Vec::with_capacity(batches.len());
    let mut model = fresh.clone();
    for &batch_size in batches {
        let cfg = train_config(batch_size);
        model = fresh.clone();
        model.train_epoch(&data.0, &cfg, rng)?;
        let samples: Vec<f64> = (0..effort.batches.max(3))
            .map(|_| timed(|| model.train_epoch(&data.0, &cfg, rng)).0)
            .collect();
        epochs.push(median(&samples));
    }
    let eval = effort.per_call(8, || model.evaluate(&data.1));
    Ok((epochs, eval))
}

fn probe_dnn(
    effort: Effort,
    data: &Datasets,
    replicas: &[(usize, ReplicaRun)],
    tensor_step: &TensorStep,
    rng: &mut StdRng,
    ledger: &mut Ledger,
) -> BenchResult<()> {
    let batches: &[usize] = effort.size.pick(&SEARCH_BATCHES, &BATCHES);
    let lenet = LeNet5::with_input_size(16, 10, DROPOUT, rng)?;
    let text = cnn_text_spec();
    let cnn = TextCnn::new(
        text.vocab,
        text.seq_len,
        EMBED,
        12,
        text.classes,
        DROPOUT,
        rng,
    )?;
    let text = lstm_text_spec();
    let lstm = LstmClassifier::new(
        text.vocab,
        text.seq_len,
        EMBED,
        16,
        text.classes,
        DROPOUT,
        rng,
    )?;
    let (lenet_epochs, lenet_eval) = model_times(effort, &lenet, &data.image, batches, rng)?;
    let (cnn_epochs, cnn_eval) = model_times(effort, &cnn, &data.cnn_text, batches, rng)?;
    let (lstm_epochs, lstm_eval) = model_times(effort, &lstm, &data.lstm_text, batches, rng)?;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Tensor share of an epoch: kernel time of the steps the epoch takes at
    // this batch size over the epoch itself, averaged over the batch sizes
    // both probes cover.
    for (model, train_len, epochs) in [
        ("lenet", 256usize, &lenet_epochs),
        ("cnn", 240, &cnn_epochs),
        ("lstm", 160, &lstm_epochs),
    ] {
        let fractions: Vec<f64> = BATCHES
            .iter()
            .filter_map(|&b| {
                let at = batches.iter().position(|&x| x == b)?;
                // A step never holds more examples than the set; scale the
                // probed step down when it does.
                let per_step = tensor_step.get(&(model, b))? * (b.min(train_len) as f64 / b as f64);
                let steps = train_len.div_ceil(b) as f64;
                Some(per_step * steps / epochs[at])
            })
            .collect();
        ledger.units.tensor_fraction.insert(model, mean(&fractions));
    }

    // One step at each batch size, and how much of `LeNet5`'s own epoch
    // the layers account for (the rest is ReLU, dropout, batch gathering).
    let mut sum = LayerSecs::default();
    let mut attributed = Vec::new();
    for (batch, replica) in replicas {
        sum.add(&replica.per_step);
        if let Some(at) = batches.iter().position(|b| b == batch) {
            attributed
                .push(replica.per_step.total() * replica.steps_per_epoch as f64 / lenet_epochs[at]);
        }
    }

    let (mut emb_fwd, mut emb_bwd, mut cell_fwd, mut cell_pair) = (0.0, 0.0, 0.0, 0.0);
    for batch in BATCHES {
        let tokens: Vec<Vec<u32>> = (0..batch)
            .map(|i| (0..24).map(|t| ((i * 31 + t * 7) % 400) as u32).collect())
            .collect();
        let mut embedding = Embedding::new(400, EMBED, rng);
        let grad = Tensor::randn(&[batch, 24, EMBED], 1.0, rng);
        emb_fwd += effort.per_call(40, || embedding.forward(&tokens, true));
        emb_bwd += effort.per_call(40, || embedding.backward(&grad));
        let mut cell = LstmCell::new(EMBED, 16, rng);
        let x = Tensor::randn(&[batch, 12, EMBED], 1.0, rng);
        let grad_h = Tensor::randn(&[batch, 16], 1.0, rng);
        cell_fwd += effort.per_call(8, || cell.forward(&x, true));
        // `backward` consumes the cache `forward` built, so time the pair
        // and take the forward time off.
        cell_pair += effort.per_call(8, || {
            cell.forward(&x, true).and_then(|_| cell.backward(&grad_h))
        });
    }

    let m = &mut ledger.metrics;
    m.insert("dnn.lenet.epoch_ms", mean(&lenet_epochs) * 1e3);
    m.insert("dnn.textcnn.epoch_ms", mean(&cnn_epochs) * 1e3);
    m.insert("dnn.lstm.epoch_ms", mean(&lstm_epochs) * 1e3);
    m.insert("dnn.lenet.eval_ms", lenet_eval * 1e3);
    m.insert("dnn.textcnn.eval_ms", cnn_eval * 1e3);
    m.insert("dnn.lstm.eval_ms", lstm_eval * 1e3);
    m.insert("dnn.conv2d.fwd_us", sum.conv_fwd * 1e6);
    m.insert("dnn.conv2d.bwd_us", sum.conv_bwd * 1e6);
    m.insert("dnn.dense.fwd_us", sum.dense_fwd * 1e6);
    m.insert("dnn.dense.bwd_us", sum.dense_bwd * 1e6);
    m.insert("dnn.maxpool.fwd_us", sum.pool_fwd * 1e6);
    m.insert("dnn.maxpool.bwd_us", sum.pool_bwd * 1e6);
    m.insert("dnn.embedding.fwd_us", emb_fwd * 1e6);
    m.insert("dnn.embedding.bwd_us", emb_bwd * 1e6);
    m.insert("dnn.lstm_cell.fwd_us", cell_fwd * 1e6);
    m.insert(
        "dnn.lstm_cell.bwd_us",
        (cell_pair - cell_fwd).max(0.0) * 1e6,
    );
    m.insert("dnn.loss_us", sum.loss * 1e6);
    m.insert("dnn.sgd_step_us", sum.sgd * 1e6);
    m.insert("dnn.attributed_share", mean(&attributed));
    Ok(())
}

/// Kernel epochs at the size the stream workload runs them (scale 0.2).
fn probe_kernels(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    for (spec, metric) in [
        (WorkloadSpec::jacobi(), "kernels.jacobi.epoch_us"),
        (WorkloadSpec::hotspot(), "kernels.hotspot.epoch_us"),
    ] {
        let mut instance = spec
            .with_scale(0.2)
            .instantiate(&HyperParams::default(), seed)?;
        let secs = effort.per_call(4000, || instance.run_epoch());
        ledger.metrics.insert(metric, secs * 1e6);
        ledger.units.kernel_epoch_s.insert(spec.name(), secs);
    }
    Ok(())
}

pub(super) fn probe(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let mut rng = StdRng::seed_from_u64(subseed(seed, 0x5B));
    let data = probe_data(seed, effort, ledger)?;
    let mut replicas = Vec::with_capacity(BATCHES.len());
    for batch in BATCHES {
        replicas.push((batch, run_replica(effort, &data.image.0, batch, &mut rng)?));
    }
    let tensor_step = probe_tensor(effort, &replicas, &mut rng, ledger)?;
    probe_dnn(effort, &data, &replicas, &tensor_step, &mut rng, ledger)?;
    probe_kernels(seed, effort, ledger)
}
