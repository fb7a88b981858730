//! Non-secure baselines: plaintext training/inference on CPU or GPU.
//!
//! These run the *same* layer walk ([`crate::walk`]) as the secure
//! trainer, over plaintext `f64` matrices, with simulated-time accounting
//! from the same machine model. They are the comparison points of Table 1
//! ("Original") and Table 2 ("GPU time").

use crate::config::EngineConfig;
use crate::error::Result;
use crate::layers::Activation;
use crate::models::{Loss, ModelSpec};
use crate::walk::{
    self, batched_im2col, column_slice, conv_to_rows, non_empty_plan, pool_upsample,
    pool_window_sum, rows_to_conv, LayerOps, Param, PoolWindow, Product, Site,
};
use psml_data::DatasetKind;
use psml_mpc::PlainMatrix;
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
    ops: Plain,
}

/// The plaintext driver of the layer walk: computes in `f64` and charges
/// each op to the simulated clock of its backend.
struct Plain {
    cfg: EngineConfig,
    backend: PlainBackend,
    weights: Vec<Vec<PlainMatrix>>,
    elapsed: SimDuration,
}

impl PlainModel {
    /// Builds the model with the same weight initialization stream as
    /// [`crate::SecureTrainer`] (same seed -> same initial weights). An
    /// inconsistent `cfg` or `spec` is an [`crate::EngineError::Config`].
    pub fn new(cfg: EngineConfig, spec: ModelSpec, backend: PlainBackend, seed: u32) -> Result<Self> {
        walk::check_model(&cfg, &spec)?;
        let weights = spec.init_weights(seed);
        let mut elapsed = SimDuration::ZERO;
        if backend == PlainBackend::Gpu {
            // One-time weight residency transfer.
            let upload: usize = weights.iter().flatten().map(PlainMatrix::byte_size).sum();
            elapsed += cfg.machine.gpu.pcie.transfer_time(upload);
        }
        Ok(PlainModel {
            spec,
            ops: Plain {
                cfg,
                backend,
                weights,
                elapsed,
            },
        })
    }

    /// Accumulated simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.ops.elapsed
    }

    /// The model specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The current weights, layer-major (the `crate::io` layout).
    pub fn weights(&self) -> &[Vec<PlainMatrix>] {
        &self.ops.weights
    }

    /// Trains on one batch; returns the loss.
    pub fn train_batch(&mut self, x: &PlainMatrix, y: &PlainMatrix) -> Result<f64> {
        walk::step(&mut self.ops, &self.spec, x, y)
    }

    /// Plain inference on one batch.
    pub fn infer_batch(&mut self, x: &PlainMatrix) -> Result<PlainMatrix> {
        walk::forward(&mut self.ops, &self.spec, x)
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
        non_empty_plan(batch_size, batches)?;
        let mut losses = Vec::with_capacity(batches);
        let mut accuracy = 0.0;
        for b in 0..batches {
            let data = psml_data::batch(dataset, batch_size, b, seed);
            let y = self.targets_for(&data);
            losses.push(self.train_batch(&data.x, &y)?);
            if b + 1 == batches {
                let out = self.infer_batch(&data.x)?;
                accuracy = self.accuracy(&out, &y);
            }
        }
        Ok(PlainRunResult {
            losses,
            elapsed: self.ops.elapsed,
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

impl Plain {
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
}

/// Each op's charge is its own: GEMMs at the backend's GEMM rate; the
/// layout transforms that write a new matrix (im2col, conv output rows)
/// two passes over their output; the pool and its adjoint one charge for
/// sum and scale together; slicing, transposes and masks nothing; a
/// layer's weight update one pass of three over all its gradients.
impl LayerOps for Plain {
    type M = PlainMatrix;
    type Mask = PlainMatrix;
    type Targets = PlainMatrix;

    fn dims(m: &PlainMatrix) -> (usize, usize) {
        m.shape()
    }
    fn target_dims(y: &PlainMatrix) -> (usize, usize) {
        y.shape()
    }
    /// On the GPU backend the batch crosses PCIe in, the prediction out.
    fn load(&mut self, x: &PlainMatrix) {
        self.charge_io(x.byte_size());
    }
    fn unload(&mut self, y: &PlainMatrix) {
        self.charge_io(y.byte_size());
    }
    fn mul(&mut self, x: &PlainMatrix, w: Param, _: Product) -> Result<PlainMatrix> {
        let z = x.matmul(&self.weights[w.layer][w.which]);
        self.charge_gemm(x.rows(), x.cols(), z.cols());
        Ok(z)
    }
    fn mul_by_t(&mut self, d: &PlainMatrix, w: Param, _: Product) -> Result<PlainMatrix> {
        let z = d.matmul(&self.weights[w.layer][w.which].transpose());
        self.charge_gemm(d.rows(), d.cols(), z.cols());
        Ok(z)
    }
    fn mul_t(&mut self, a: &PlainMatrix, d: &PlainMatrix, _: Product) -> Result<PlainMatrix> {
        let z = a.transpose().matmul(d);
        self.charge_gemm(a.cols(), a.rows(), d.cols());
        Ok(z)
    }
    fn add(&mut self, a: &PlainMatrix, b: &PlainMatrix) -> Result<PlainMatrix> {
        let z = a.add(b);
        self.charge_elementwise(3 * z.byte_size());
        Ok(z)
    }
    fn zeros(&mut self, rows: usize, cols: usize) -> PlainMatrix {
        PlainMatrix::zeros(rows, cols)
    }
    fn activate(
        &mut self,
        z: PlainMatrix,
        f: Activation,
        _: Site,
    ) -> Result<(PlainMatrix, Option<PlainMatrix>)> {
        self.charge_elementwise(2 * z.byte_size());
        if f.is_linear() {
            return Ok((z, None));
        }
        let a = z.map(|x| f.apply(x));
        let mask = z.map(|x| if f.derivative(x) != 0.0 { 1.0 } else { 0.0 });
        Ok((a, Some(mask)))
    }
    fn ones(rows: usize, cols: usize) -> PlainMatrix {
        PlainMatrix::from_fn(rows, cols, |_, _| 1.0)
    }
    fn mask(&mut self, d: &PlainMatrix, mask: &PlainMatrix) -> Result<PlainMatrix> {
        Ok(d.hadamard(mask))
    }
    fn im2col(&mut self, x: &PlainMatrix, shape: &ConvShape) -> PlainMatrix {
        let patches = batched_im2col(x, shape);
        self.charge_elementwise(2 * patches.byte_size());
        patches
    }
    fn conv_to_rows(&mut self, y: &PlainMatrix, batch: usize, shape: &ConvShape) -> PlainMatrix {
        let flat = conv_to_rows(y, batch, shape);
        self.charge_elementwise(2 * flat.byte_size());
        flat
    }
    fn rows_to_conv(&mut self, d: &PlainMatrix, batch: usize, shape: &ConvShape) -> PlainMatrix {
        rows_to_conv(d, batch, shape)
    }
    fn column_slice(&mut self, x: &PlainMatrix, start: usize, width: usize) -> PlainMatrix {
        column_slice(x, start, width)
    }
    fn pool(&mut self, x: &PlainMatrix, pool: PoolWindow) -> PlainMatrix {
        let mean = pool_window_sum(x, pool).scale(pool.scale());
        self.charge_elementwise(2 * mean.byte_size());
        mean
    }
    fn unpool(&mut self, d: &PlainMatrix, pool: PoolWindow) -> PlainMatrix {
        let up = pool_upsample(d, pool).scale(pool.scale());
        self.charge_elementwise(2 * up.byte_size());
        up
    }
    fn update(&mut self, layer: usize, grads: &[PlainMatrix]) -> Result<()> {
        let lr = self.cfg.learning_rate;
        for (w, grad) in self.weights[layer].iter_mut().zip(grads) {
            *w = w.sub(&grad.scale(lr));
        }
        let bytes: usize = grads.iter().map(PlainMatrix::byte_size).sum();
        self.charge_elementwise(3 * bytes);
        Ok(())
    }
    fn loss_grad(
        &mut self,
        pred: &PlainMatrix,
        y: &PlainMatrix,
        loss: Loss,
    ) -> Result<(PlainMatrix, f64)> {
        let batch = pred.rows() as f64;
        self.charge_elementwise(3 * pred.byte_size());
        let grad = match loss {
            Loss::Mse => pred.sub(y).scale(2.0 / batch),
            Loss::Hinge => PlainMatrix::from_fn(pred.rows(), pred.cols(), |r, c| {
                if 1.0 - y[(r, c)] * pred[(r, c)] > 0.0 {
                    -y[(r, c)] / batch
                } else {
                    0.0
                }
            }),
        };
        Ok((grad, loss.value(pred, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use psml_parallel::Mt19937;

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
        let plain_out = plain.infer_batch(&x).unwrap();
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
