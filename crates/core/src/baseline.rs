//! Non-secure baselines: plaintext training/inference on CPU or GPU.
//!
//! These implement the *same* [`ModelSpec`] networks as the secure trainer,
//! over plaintext `f64` matrices, with simulated-time accounting from the
//! same machine model. They are the comparison points of Table 1
//! ("Original") and Table 2 ("GPU time").

use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::layers::{Activation, LayerSpec};
use crate::models::{Loss, ModelSpec};
use crate::trainer::{batched_im2col, column_slice, conv_to_rows, rows_to_conv};
use psml_data::DatasetKind;
use psml_mpc::PlainMatrix;
#[cfg(test)]
use psml_parallel::Mt19937;
use psml_simtime::SimDuration;
use psml_tensor::ConvShape;

/// Which hardware the plaintext baseline runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlainBackend {
    /// Host CPU at the configured thread count.
    Cpu,
    /// GPU with weights resident; inputs cross PCIe per batch.
    Gpu,
}

enum PlainCache {
    Dense {
        x: PlainMatrix,
        mask: Option<PlainMatrix>,
    },
    Conv {
        patches: PlainMatrix,
        mask: Option<PlainMatrix>,
        batch: usize,
        shape: ConvShape,
    },
    Rnn {
        last_x: PlainMatrix,
        last_h_prev: PlainMatrix,
        last_mask: PlainMatrix,
    },
    Pool {
        channels: usize,
        grid_h: usize,
        grid_w: usize,
        window: usize,
    },
}

/// Result of a plaintext run.
#[derive(Clone, Debug)]
pub struct PlainRunResult {
    /// Per-batch losses.
    pub losses: Vec<f64>,
    /// Accumulated simulated time.
    pub elapsed: SimDuration,
    /// Accuracy on the last batch.
    pub accuracy: f64,
}

/// A plaintext (non-secure) model with simulated-time accounting.
pub struct PlainModel {
    spec: ModelSpec,
    cfg: EngineConfig,
    backend: PlainBackend,
    weights: Vec<Vec<PlainMatrix>>,
    elapsed: SimDuration,
}

impl PlainModel {
    /// Builds the model with the same weight initialization stream as
    /// [`crate::SecureTrainer`] (same seed -> same initial weights).
    pub fn new(cfg: EngineConfig, spec: ModelSpec, backend: PlainBackend, seed: u32) -> Result<Self> {
        spec.validate()?;
        let weights = spec.init_weights(seed);
        let upload: usize = weights.iter().flatten().map(PlainMatrix::byte_size).sum();
        let mut model = PlainModel {
            spec,
            cfg,
            backend,
            weights,
            elapsed: SimDuration::ZERO,
        };
        if backend == PlainBackend::Gpu {
            // One-time weight residency transfer.
            model.elapsed += model.cfg.machine.gpu.pcie.transfer_time(upload);
        }
        Ok(model)
    }

    /// Accumulated simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// The model specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn charge_gemm(&mut self, m: usize, k: usize, n: usize) {
        self.elapsed += match self.backend {
            PlainBackend::Cpu => self.cfg.cpu_gemm_time(m, k, n),
            PlainBackend::Gpu => self
                .cfg
                .machine
                .gpu
                .gemm_time(m, k, n, self.cfg.tensor_cores),
        };
    }

    fn charge_elementwise(&mut self, bytes: usize) {
        self.elapsed += match self.backend {
            PlainBackend::Cpu => self.cfg.cpu_elementwise_time(bytes),
            PlainBackend::Gpu => self.cfg.machine.gpu.elementwise_time(bytes),
        };
    }

    fn charge_io(&mut self, bytes: usize) {
        if self.backend == PlainBackend::Gpu {
            self.elapsed += self.cfg.machine.gpu.pcie.transfer_time(bytes);
        }
    }

    fn apply_activation(
        &mut self,
        z: PlainMatrix,
        activation: Activation,
    ) -> (PlainMatrix, Option<PlainMatrix>) {
        self.charge_elementwise(2 * z.byte_size());
        if activation.is_linear() {
            (z, None)
        } else {
            let a = z.map(|x| activation.apply(x));
            let mask = z.map(|x| if activation.derivative(x) != 0.0 { 1.0 } else { 0.0 });
            (a, Some(mask))
        }
    }

    fn forward(&mut self, x: &PlainMatrix) -> (PlainMatrix, Vec<PlainCache>) {
        let batch = x.rows();
        self.charge_io(x.byte_size());
        let mut cur = x.clone();
        let mut caches = Vec::new();
        for li in 0..self.spec.layers.len() {
            let layer = self.spec.layers[li].clone();
            match layer {
                LayerSpec::Dense { activation, .. } => {
                    let w = &self.weights[li][0];
                    let z = cur.matmul(w);
                    self.charge_gemm(cur.rows(), cur.cols(), w.cols());
                    let (a, mask) = self.apply_activation(z, activation);
                    caches.push(PlainCache::Dense { x: cur, mask });
                    cur = a;
                }
                LayerSpec::Conv2D { shape, activation } => {
                    let patches = batched_im2col(&cur, &shape);
                    self.charge_elementwise(2 * patches.byte_size());
                    let w = &self.weights[li][0];
                    let z = patches.matmul(w);
                    self.charge_gemm(patches.rows(), patches.cols(), w.cols());
                    let (a, mask) = self.apply_activation(z, activation);
                    let flat = conv_to_rows(&a, batch, &shape);
                    self.charge_elementwise(2 * flat.byte_size());
                    caches.push(PlainCache::Conv {
                        patches,
                        mask,
                        batch,
                        shape,
                    });
                    cur = flat;
                }
                LayerSpec::AvgPool2D {
                    channels,
                    grid_h,
                    grid_w,
                    window,
                } => {
                    let summed =
                        crate::trainer::pool_window_sum(&cur, channels, grid_h, grid_w, window);
                    cur = summed.scale(1.0 / (window * window) as f64);
                    self.charge_elementwise(2 * cur.byte_size());
                    caches.push(PlainCache::Pool {
                        channels,
                        grid_h,
                        grid_w,
                        window,
                    });
                }
                LayerSpec::Rnn {
                    step_inputs,
                    hidden,
                    seq_len,
                    activation,
                } => {
                    let mut h = PlainMatrix::zeros(batch, hidden);
                    let mut last_x = PlainMatrix::zeros(0, 0);
                    let mut last_h_prev = PlainMatrix::zeros(0, 0);
                    let mut last_mask = PlainMatrix::from_fn(batch, hidden, |_, _| 1.0);
                    for t in 0..seq_len {
                        let x_t = column_slice(&cur, t * step_inputs, step_inputs);
                        let zx = x_t.matmul(&self.weights[li][0]);
                        self.charge_gemm(batch, step_inputs, hidden);
                        let zh = h.matmul(&self.weights[li][1]);
                        self.charge_gemm(batch, hidden, hidden);
                        let z = zx.add(&zh);
                        self.charge_elementwise(3 * z.byte_size());
                        let h_prev = h.clone();
                        let (h_new, mask) = self.apply_activation(z, activation);
                        last_x = x_t;
                        last_h_prev = h_prev;
                        if let Some(m) = mask {
                            last_mask = m;
                        }
                        h = h_new;
                    }
                    caches.push(PlainCache::Rnn {
                        last_x,
                        last_h_prev,
                        last_mask,
                    });
                    cur = h;
                }
            }
        }
        self.charge_io(cur.byte_size());
        (cur, caches)
    }

    fn backward(&mut self, caches: Vec<PlainCache>, d: PlainMatrix) {
        let lr = self.cfg.learning_rate;
        let mut d = d;
        for (li, cache) in caches.into_iter().enumerate().rev() {
            match cache {
                PlainCache::Dense { x, mask } => {
                    let dz = match &mask {
                        Some(m) => d.hadamard(m),
                        None => d.clone(),
                    };
                    let dw = x.transpose().matmul(&dz);
                    self.charge_gemm(x.cols(), x.rows(), dz.cols());
                    if li > 0 {
                        d = dz.matmul(&self.weights[li][0].transpose());
                        self.charge_gemm(dz.rows(), dz.cols(), self.weights[li][0].rows());
                    }
                    let bytes = self.weights[li][0].byte_size();
                    let w = &mut self.weights[li][0];
                    *w = w.sub(&dw.scale(lr));
                    self.charge_elementwise(3 * bytes);
                }
                PlainCache::Conv {
                    patches,
                    mask,
                    batch,
                    shape,
                } => {
                    let dcols = rows_to_conv(&d, batch, &shape);
                    let dz = match &mask {
                        Some(m) => dcols.hadamard(m),
                        None => dcols,
                    };
                    let dw = patches.transpose().matmul(&dz);
                    self.charge_gemm(patches.cols(), patches.rows(), dz.cols());
                    let bytes = self.weights[li][0].byte_size();
                    let w = &mut self.weights[li][0];
                    *w = w.sub(&dw.scale(lr));
                    self.charge_elementwise(3 * bytes);
                }
                PlainCache::Pool {
                    channels,
                    grid_h,
                    grid_w,
                    window,
                } => {
                    let up =
                        crate::trainer::pool_upsample(&d, channels, grid_h, grid_w, window);
                    d = up.scale(1.0 / (window * window) as f64);
                    self.charge_elementwise(2 * d.byte_size());
                }
                PlainCache::Rnn {
                    last_x,
                    last_h_prev,
                    last_mask,
                } => {
                    let dz = d.hadamard(&last_mask);
                    let dwx = last_x.transpose().matmul(&dz);
                    self.charge_gemm(last_x.cols(), last_x.rows(), dz.cols());
                    let dwh = last_h_prev.transpose().matmul(&dz);
                    self.charge_gemm(last_h_prev.cols(), last_h_prev.rows(), dz.cols());
                    let wx = &mut self.weights[li][0];
                    *wx = wx.sub(&dwx.scale(lr));
                    let wh = &mut self.weights[li][1];
                    *wh = wh.sub(&dwh.scale(lr));
                    self.charge_elementwise(3 * (dwx.byte_size() + dwh.byte_size()));
                }
            }
        }
    }

    fn loss_grad(&mut self, pred: &PlainMatrix, y: &PlainMatrix) -> (PlainMatrix, f64) {
        let batch = pred.rows() as f64;
        self.charge_elementwise(3 * pred.byte_size());
        match self.spec.loss {
            Loss::Mse => {
                let diff = pred.sub(y);
                let loss = diff.as_slice().iter().map(|e| e * e).sum::<f64>() / batch;
                (diff.scale(2.0 / batch), loss)
            }
            Loss::Hinge => {
                let grad = PlainMatrix::from_fn(pred.rows(), pred.cols(), |r, c| {
                    if 1.0 - y[(r, c)] * pred[(r, c)] > 0.0 {
                        -y[(r, c)] / batch
                    } else {
                        0.0
                    }
                });
                let loss = pred
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&p, &yv)| (1.0 - yv * p).max(0.0))
                    .sum::<f64>()
                    / batch;
                (grad, loss)
            }
        }
    }

    /// Trains on one batch; returns the loss.
    pub fn train_batch(&mut self, x: &PlainMatrix, y: &PlainMatrix) -> Result<f64> {
        if x.cols() != self.spec.input_features() {
            return Err(EngineError::Shape(format!(
                "batch features {} != model features {}",
                x.cols(),
                self.spec.input_features()
            )));
        }
        let (pred, caches) = self.forward(x);
        let (grad, loss) = self.loss_grad(&pred, y);
        self.backward(caches, grad);
        Ok(loss)
    }

    /// Plain inference on one batch.
    pub fn infer_batch(&mut self, x: &PlainMatrix) -> PlainMatrix {
        self.forward(x).0
    }

    /// Trains over dataset batches, mirroring
    /// [`crate::SecureTrainer::train`].
    pub fn train(
        &mut self,
        dataset: DatasetKind,
        batch_size: usize,
        batches: usize,
        seed: u32,
    ) -> Result<PlainRunResult> {
        let mut losses = Vec::with_capacity(batches);
        let mut accuracy = 0.0;
        for b in 0..batches {
            let data = psml_data::batch(dataset, batch_size, b, seed);
            let y = self.targets_for(&data);
            losses.push(self.train_batch(&data.x, &y)?);
            if b + 1 == batches {
                let out = self.infer_batch(&data.x);
                accuracy = self.accuracy(&out, &y);
            }
        }
        Ok(PlainRunResult {
            losses,
            elapsed: self.elapsed,
            accuracy,
        })
    }

    /// Maps a dataset batch to targets ([`ModelSpec::targets_for`]).
    pub fn targets_for(&self, data: &psml_data::Batch) -> PlainMatrix {
        self.spec.targets_for(data)
    }

    /// Fraction of rows predicted correctly ([`ModelSpec::accuracy`]).
    pub fn accuracy(&self, pred: &PlainMatrix, y: &PlainMatrix) -> f64 {
        self.spec.accuracy(pred, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;

    fn build(kind: ModelKind, backend: PlainBackend) -> PlainModel {
        let spec = ModelSpec::build(kind, 64, None, 10).unwrap();
        PlainModel::new(EngineConfig::parsecureml(), spec, backend, 3).unwrap()
    }

    #[test]
    fn all_models_train_a_batch() {
        for kind in ModelKind::ALL {
            let spec = if kind == ModelKind::Cnn {
                ModelSpec::build(kind, 64, Some((1, 8, 8)), 10).unwrap()
            } else {
                ModelSpec::build(kind, 64, None, 10).unwrap()
            };
            let mut model =
                PlainModel::new(EngineConfig::parsecureml(), spec, PlainBackend::Cpu, 3)
                    .unwrap();
            let data = psml_data::batch(psml_data::DatasetKind::Synthetic, 8, 0, 5);
            let x = column_slice(&data.x, 0, 64);
            let y = model.targets_for(&data);
            let loss = model.train_batch(&x, &y).unwrap();
            assert!(loss.is_finite(), "{kind:?}");
            assert!(model.elapsed().as_secs() > 0.0, "{kind:?} charged no time");
        }
    }

    #[test]
    fn gpu_backend_is_faster_than_serial_cpu() {
        let mut cpu = {
            let spec = ModelSpec::build(ModelKind::Mlp, 64, None, 10).unwrap();
            PlainModel::new(EngineConfig::secureml(), spec, PlainBackend::Cpu, 3).unwrap()
        };
        let mut gpu = build(ModelKind::Mlp, PlainBackend::Gpu);
        let data = psml_data::batch(psml_data::DatasetKind::Synthetic, 64, 0, 5);
        let x = column_slice(&data.x, 0, 64);
        let y = cpu.targets_for(&data);
        cpu.train_batch(&x, &y).unwrap();
        gpu.train_batch(&x, &y).unwrap();
        assert!(gpu.elapsed() < cpu.elapsed());
    }

    #[test]
    fn loss_decreases_over_batches() {
        let mut model = build(ModelKind::Linear, PlainBackend::Cpu);
        let data = psml_data::batch(psml_data::DatasetKind::Synthetic, 32, 0, 5);
        let x = column_slice(&data.x, 0, 64);
        let y = PlainMatrix::from_fn(32, 1, |r, _| x.row(r).iter().sum::<f64>() / 64.0);
        let first = model.train_batch(&x, &y).unwrap();
        let mut last = first;
        for _ in 0..10 {
            last = model.train_batch(&x, &y).unwrap();
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn same_seed_matches_secure_initial_weights() {
        // The secure trainer and the plain model share the init stream, so
        // their time-zero inference agrees (up to fixed-point noise).
        use crate::trainer::SecureTrainer;
        use psml_mpc::Fixed64;
        let spec = ModelSpec::build(ModelKind::Linear, 16, None, 10).unwrap();
        let mut plain = PlainModel::new(
            EngineConfig::parsecureml(),
            spec.clone(),
            PlainBackend::Cpu,
            21,
        )
        .unwrap();
        let mut secure =
            SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, 21).unwrap();
        let mut rng = Mt19937::new(2);
        let x = PlainMatrix::from_fn(4, 16, |_, _| rng.next_f64() - 0.5);
        let plain_out = plain.infer_batch(&x);
        let secure_out = secure
            .infer_request(&crate::serve::InferRequest::new(x.clone()))
            .unwrap()
            .output;
        assert!(
            plain_out.max_abs_diff(&secure_out) < 5e-3,
            "diff {}",
            plain_out.max_abs_diff(&secure_out)
        );
    }
}
