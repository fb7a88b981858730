//! Secure training and inference over the benchmark models.
//!
//! The trainer runs the layer walk ([`crate::walk`]) over secret shares
//! using the [`SecureContext`] primitives: every GEMM is a triplet
//! multiplication (adaptively placed on CPU/GPU, pipelined, with
//! compressed transmission), every activation the interactive
//! reconstruct/re-share step, and every weight update a local share
//! operation. Both forward and backward propagation run securely, as in
//! the paper's Fig. 6.

use crate::config::EngineConfig;
use crate::engine::{SecureContext, SharedMatrix};
use crate::error::{EngineError, Result};
use crate::layers::Activation;
use crate::models::{Loss, ModelSpec};
use crate::report::RunReport;
use crate::serve::{InferRequest, InferResponse, RequestReport};
use crate::walk::{
    self, batched_im2col, column_slice, conv_to_rows, non_empty_plan, pool_upsample,
    pool_window_sum, rows_to_conv, LayerOps, Param, PoolWindow, Product, Site,
};
use psml_data::DatasetKind;
use psml_mpc::{follow_openings, PlainMatrix, SecureRing, Secret};
use psml_tensor::ConvShape;
use std::collections::HashSet;

/// Result of a training run.
#[derive(Clone, Debug)]
pub struct TrainResult {
    /// Per-batch training loss (client-side, from revealed predictions).
    pub losses: Vec<f64>,
    /// Simulated performance report.
    pub report: RunReport,
    /// Training accuracy on the last batch.
    pub accuracy: f64,
}

/// A client-side snapshot of training progress: how many epochs have
/// fully completed plus the revealed weights at that boundary.
///
/// Checkpoints make training restartable under network chaos: when a run
/// dies with [`EngineError::Net`] (retry budget exhausted during a
/// blackout, say), the last checkpoint survives on the trainer. Resume by
/// building a **fresh** trainer — a failed context's links may still hold
/// stale frames — and calling
/// [`SecureTrainer::resume_from_checkpoint`], which re-shares the weights
/// (an offline step) so training continues from the last epoch boundary.
#[derive(Clone, Debug)]
pub struct TrainerCheckpoint {
    /// Epochs fully completed when the snapshot was taken.
    pub epoch: usize,
    /// Revealed weights, layer-major (the `crate::io` format).
    pub weights: Vec<Vec<PlainMatrix>>,
}

/// A plan's inputs, shared **once**: what [`SecureTrainer::share_plan`]
/// returns and every epoch of the run trains over. Re-sharing per epoch
/// would draw the masking RNG again and diverge from an uninterrupted
/// run; holding the shares in a value only `share_plan` can build rules
/// that out.
pub struct SharedPlan<R: SecureRing> {
    /// Per mini-batch, in plan order (never empty): shared inputs and
    /// targets, and the plaintext targets and inputs.
    batches: Vec<(SharedMatrix<R>, SharedMatrix<R>, PlainMatrix, PlainMatrix)>,
}

/// Result of an inference run.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Revealed model outputs (`batch x outputs`).
    pub outputs: PlainMatrix,
    /// Simulated performance report.
    pub report: RunReport,
    /// Accuracy against provided labels.
    pub accuracy: f64,
}

/// The secure three-party trainer.
pub struct SecureTrainer<R: SecureRing> {
    ctx: SecureContext<R>,
    spec: ModelSpec,
    /// Per layer: its weight matrices as shares (Dense/Conv: 1, RNN: 2).
    weights: Vec<Vec<SharedMatrix<R>>>,
    /// Most recent epoch-boundary snapshot (see [`TrainerCheckpoint`]).
    last_checkpoint: Option<TrainerCheckpoint>,
    /// The weights a forward declaration opened since they last changed:
    /// their openings stay with the engine and their masks with the
    /// dealer, so later forward passes read them
    /// ([`ModelSpec::forward_deals`]). A training step's declaration
    /// masks them anew and closes them, and re-shared weights are new
    /// secrets; both forget them.
    open_weights: HashSet<Secret>,
}

impl<R: SecureRing> SecureTrainer<R> {
    /// Builds the trainer: client initializes plaintext weights (small
    /// uniform) and shares them to the servers (offline phase). An
    /// inconsistent `cfg` or `spec` is an [`EngineError::Config`].
    pub fn new(cfg: EngineConfig, spec: ModelSpec, seed: u32) -> Result<Self> {
        walk::check_model(&cfg, &spec)?;
        let init = spec.init_weights(seed);
        let mut trainer = SecureTrainer {
            ctx: SecureContext::new(cfg, seed),
            spec,
            weights: Vec::new(),
            last_checkpoint: None,
            open_weights: HashSet::new(),
        };
        trainer.import_weights(&init)?;
        Ok(trainer)
    }

    /// The model being trained.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Access to the underlying context (reports, profiles).
    pub fn context(&self) -> &SecureContext<R> {
        &self.ctx
    }

    /// Current simulated report.
    pub fn report(&self) -> RunReport {
        self.ctx.report()
    }

    /// Installs the observer of every packet `node` receives from now on
    /// ([`SecureContext::set_receive_tap`]).
    pub fn set_receive_tap(&mut self, node: psml_net::NodeId, tap: psml_net::ReceiveTap<R>) {
        self.ctx.set_receive_tap(node, tap);
    }

    /// Shares a client plaintext matrix through this trainer's context
    /// (offline phase) — used to pre-share inputs for epoch training.
    pub fn share_input(&mut self, m: &PlainMatrix) -> Result<SharedMatrix<R>> {
        self.ctx.share_input(m)
    }

    /// Reveals the current weights (diagnostics / export).
    pub fn reveal_weights(&self) -> Vec<Vec<PlainMatrix>> {
        self.weights
            .iter()
            .map(|ws| ws.iter().map(SharedMatrix::reveal_insecure).collect())
            .collect()
    }

    /// Exports the current (revealed) weights to a file in the
    /// `crate::io` format.
    pub fn export_weights(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        crate::io::save_weights(path, &self.reveal_weights())
    }

    /// Takes a snapshot of the current weights, tagged with the number of
    /// epochs completed. A client-side export — no simulated protocol
    /// traffic is charged.
    pub fn checkpoint(&self, epoch: usize) -> TrainerCheckpoint {
        TrainerCheckpoint {
            epoch,
            weights: self.reveal_weights(),
        }
    }

    /// The most recent epoch-boundary checkpoint, if any. Survives a
    /// failed [`SecureTrainer::train_epochs`] run, so the caller can
    /// resume from it (and read the partial [`SecureTrainer::report`]).
    pub fn last_checkpoint(&self) -> Option<&TrainerCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Restores training state from a checkpoint: the client re-shares
    /// the snapshotted weights (offline phase). Returns the number of
    /// epochs already completed, i.e. where to resume.
    ///
    /// Call this on a *fresh* trainer after a run died with a network
    /// error — the failed context's links may still hold stale frames.
    pub fn resume_from_checkpoint(&mut self, ckpt: &TrainerCheckpoint) -> Result<usize> {
        self.import_weights(&ckpt.weights)?;
        self.last_checkpoint = Some(ckpt.clone());
        Ok(ckpt.epoch)
    }

    /// Replaces the model weights with externally trained ones (client
    /// re-shares them; offline phase). Shapes must match the spec.
    pub fn import_weights(&mut self, weights: &[Vec<PlainMatrix>]) -> Result<()> {
        if weights.len() != self.spec.layers.len() {
            return Err(EngineError::Shape(format!(
                "{} layers provided, model has {}",
                weights.len(),
                self.spec.layers.len()
            )));
        }
        for (layer, ws) in self.spec.layers.iter().zip(weights) {
            let expect = layer.weight_shapes();
            let got: Vec<_> = ws.iter().map(|w| w.shape()).collect();
            if expect != got {
                return Err(EngineError::Shape(format!(
                    "layer weight shapes {got:?} != expected {expect:?}"
                )));
            }
        }
        let mut shared = Vec::with_capacity(weights.len());
        for ws in weights {
            let mut per_layer = Vec::with_capacity(ws.len());
            for w in ws {
                per_layer.push(self.ctx.share_input(w)?);
            }
            shared.push(per_layer);
        }
        self.weights = shared;
        self.open_weights.clear();
        Ok(())
    }

    /// Trains on one plaintext batch `(x, y)`; returns the batch loss.
    /// `x` is `batch x features`; `y` is `batch x outputs` (one-hot,
    /// scalar target, or +-1 labels depending on the model).
    pub fn train_batch(&mut self, x: &PlainMatrix, y: &PlainMatrix) -> Result<f64> {
        walk::check_batch(&self.spec, x.shape(), Some(y.shape()))?;
        let xs = self.ctx.share_input(x)?;
        let ys = self.ctx.share_input(y)?;
        self.train_on_shared(&xs, &ys, y)
    }

    /// Trains one step on *already shared* inputs. Reusing shares across
    /// epochs is the paper's Eq. (11) setting: masked matrices then evolve
    /// by deltas, which is what makes compressed transmission pay off.
    pub fn train_on_shared(
        &mut self,
        xs: &SharedMatrix<R>,
        ys: &SharedMatrix<R>,
        y_plain: &PlainMatrix,
    ) -> Result<f64> {
        // A bad batch is refused before its triples are declared.
        walk::check_batch(&self.spec, xs.shape(), Some(ys.shape()))?;
        // Declare the whole step's products up front: the provisioning
        // pipeline (with `prefetch`) deals them concurrently with the
        // online phase, and the engine opens each secret of the step once.
        let deals = self.spec.step_deals(xs.shape().0);
        self.ctx.schedule_deals(&deals)?;
        self.open_weights.clear();
        let mut ops = Shares {
            ctx: &mut self.ctx,
            weights: &mut self.weights,
        };
        let loss = walk::step(&mut ops, &self.spec, xs, &(ys, y_plain))?;
        self.ctx.barrier();
        Ok(loss)
    }

    /// Trains `epochs` passes over the same `batches` mini-batches, sharing
    /// each batch **once** (the paper's full-batch/epoch training setup —
    /// Fig. 2 puts the whole dataset in one batch). Returns per-epoch mean
    /// losses. It is the plain loop over [`SecureTrainer::share_plan`],
    /// [`SecureTrainer::train_epoch`] and [`SecureTrainer::score`]; a
    /// caller that needs to act between epochs (the distributed session's
    /// commit barrier) drives those three itself.
    pub fn train_epochs(
        &mut self,
        dataset: DatasetKind,
        batch_size: usize,
        batches: usize,
        epochs: usize,
        seed: u32,
    ) -> Result<TrainResult> {
        let plan = self.share_plan(dataset, batch_size, batches, seed)?;
        let mut losses = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            losses.push(self.train_epoch(&plan, epoch)?.1);
        }
        let accuracy = self.score(&plan)?;
        Ok(TrainResult {
            losses,
            report: self.ctx.report(),
            accuracy,
        })
    }

    /// Offline: draws the plan's `batches` mini-batches from `dataset` and
    /// shares each exactly once. To resume an interrupted run, restore the
    /// checkpoint ([`SecureTrainer::resume_from_checkpoint`]) first, then
    /// share, then train the remaining epochs.
    pub fn share_plan(
        &mut self,
        dataset: DatasetKind,
        batch_size: usize,
        batches: usize,
        seed: u32,
    ) -> Result<SharedPlan<R>> {
        non_empty_plan(batch_size, batches)?;
        let mut shared = Vec::with_capacity(batches);
        for b in 0..batches {
            let data = psml_data::batch(dataset, batch_size, b, seed);
            let y = self.targets_for(&data);
            let xs = self.ctx.share_input(&data.x)?;
            let ys = self.ctx.share_input(&y)?;
            shared.push((xs, ys, y, data.x));
        }
        Ok(SharedPlan { batches: shared })
    }

    /// Online: one pass over the plan's shares. `epoch` counts the epochs
    /// completed before this one; afterwards `last_checkpoint` holds the
    /// epoch-`epoch + 1` boundary (`reveal_weights`, no simulated
    /// traffic), so a mid-epoch network failure (typed
    /// [`EngineError::Net`]) loses at most one epoch of work — the caller
    /// resumes from it on a fresh trainer. Returns that checkpoint and
    /// the epoch's mean loss.
    pub fn train_epoch(
        &mut self,
        plan: &SharedPlan<R>,
        epoch: usize,
    ) -> Result<(&TrainerCheckpoint, f64)> {
        let mut epoch_loss = 0.0;
        for (xs, ys, y, _) in &plan.batches {
            epoch_loss += self.train_on_shared(xs, ys, y)?;
        }
        let ckpt = self.checkpoint(epoch + 1);
        Ok((self.last_checkpoint.insert(ckpt), epoch_loss / plan.batches.len() as f64))
    }

    /// Scores the model as it stands: secure inference on the plan's last
    /// batch, accuracy against its targets.
    pub fn score(&mut self, plan: &SharedPlan<R>) -> Result<f64> {
        let (_, _, y_last, x_last) =
            plan.batches.last().expect("share_plan refuses an empty plan");
        let out = self.infer_plain(x_last)?;
        Ok(self.accuracy(&out, y_last))
    }

    /// Typed secure inference: declares this request's products, runs the
    /// online pass, reveals the outputs. The same execution path the
    /// serving layer's micro-batcher takes per request (which is why
    /// batched serving is bit-identical to a loop over this call — see
    /// `core::serve`); `latency` here is pure execution time, since a
    /// direct call has no queue.
    pub fn infer_request(&mut self, req: &InferRequest) -> Result<InferResponse> {
        let start = self.ctx.online_end();
        let muls_before = self.ctx.report().secure_muls;
        let output = self.infer_plain(&req.input)?;
        let exec = self.ctx.online_end().saturating_since(start);
        Ok(InferResponse {
            tag: req.tag,
            model: req.model,
            output,
            latency: exec,
            report: RequestReport {
                queue_wait: psml_simtime::SimDuration::ZERO,
                exec,
                window: 1,
                secure_muls: self.ctx.report().secure_muls - muls_before,
            },
        })
    }

    /// Declares forward passes over batches of `rows` samples each, in
    /// order — one inference, or a serving window's fold of them: the
    /// first pass after the weights change opens each weight, and every
    /// later pass reads that opening ([`ModelSpec::forward_deals`]).
    pub(crate) fn declare_forward(&mut self, rows: impl IntoIterator<Item = usize>) -> Result<()> {
        let mut open = self.open_weights.clone();
        let mut deals = Vec::new();
        for batch in rows {
            let pass = self.spec.forward_deals(batch, &open);
            follow_openings(&mut open, &pass).map_err(EngineError::Protocol)?;
            deals.extend(pass);
        }
        self.ctx.schedule_deals(&deals)?;
        self.open_weights = open;
        Ok(())
    }

    /// The online pass of one forward inference, *without* declaring its
    /// products — the caller (either [`SecureTrainer::infer_plain`] or the
    /// serve micro-batcher's folded window declaration) already did.
    pub(crate) fn infer_prescheduled(&mut self, x: &PlainMatrix) -> Result<PlainMatrix> {
        let xs = self.ctx.share_input(x)?;
        let mut ops = Shares {
            ctx: &mut self.ctx,
            weights: &mut self.weights,
        };
        let pred = walk::forward(&mut ops, &self.spec, &xs)?;
        let out = self.ctx.reveal(&pred)?.v;
        self.ctx.barrier();
        Ok(out)
    }

    /// Single-batch inference: declares the forward pass's products, then
    /// runs it.
    fn infer_plain(&mut self, x: &PlainMatrix) -> Result<PlainMatrix> {
        self.declare_forward([x.rows()])?;
        self.infer_prescheduled(x)
    }

    /// Trains `batches` mini-batches of `batch_size` drawn from `dataset`.
    pub fn train(
        &mut self,
        dataset: DatasetKind,
        batch_size: usize,
        batches: usize,
        seed: u32,
    ) -> Result<TrainResult> {
        non_empty_plan(batch_size, batches)?;
        let mut losses = Vec::with_capacity(batches);
        let mut last_acc = 0.0;
        for b in 0..batches {
            let data = psml_data::batch(dataset, batch_size, b, seed);
            let y = self.targets_for(&data);
            let loss = self.train_batch(&data.x, &y)?;
            losses.push(loss);
            if b + 1 == batches {
                let out = self.infer_plain(&data.x)?;
                last_acc = self.accuracy(&out, &y);
            }
        }
        Ok(TrainResult {
            losses,
            report: self.ctx.report(),
            accuracy: last_acc,
        })
    }

    /// Secure inference over `batches` mini-batches drawn from `dataset`;
    /// reports accuracy against the dataset labels. Each batch goes
    /// through the typed [`SecureTrainer::infer_request`] path.
    pub fn evaluate(
        &mut self,
        dataset: DatasetKind,
        batch_size: usize,
        batches: usize,
        seed: u32,
    ) -> Result<InferenceResult> {
        non_empty_plan(batch_size, batches)?;
        let mut correct = 0.0;
        let mut last = PlainMatrix::zeros(0, 0);
        for b in 0..batches {
            let data = psml_data::batch(dataset, batch_size, b, seed);
            let y = self.targets_for(&data);
            let resp = self
                .infer_request(&InferRequest::new(data.x).with_tag(b as u64))?;
            correct += self.accuracy(&resp.output, &y) * batch_size as f64;
            last = resp.output;
        }
        Ok(InferenceResult {
            outputs: last,
            report: self.ctx.report(),
            accuracy: correct / (batch_size * batches) as f64,
        })
    }

    /// Maps a dataset batch to this model's target representation
    /// ([`ModelSpec::targets_for`]).
    pub fn targets_for(&self, data: &psml_data::Batch) -> PlainMatrix {
        self.spec.targets_for(data)
    }

    /// Fraction of rows predicted correctly ([`ModelSpec::accuracy`]).
    pub fn accuracy(&self, pred: &PlainMatrix, y: &PlainMatrix) -> f64 {
        self.spec.accuracy(pred, y)
    }
}

/// The secure driver of the layer walk ([`crate::walk`]): the ops call
/// the [`SecureContext`] primitives on the trainer's context and shared
/// weights. Every product names its operands and takes the deal declared
/// for it: a mask-schedule product in a training step, a single-use
/// triple in a forward pass alone.
struct Shares<'a, R: SecureRing> {
    ctx: &'a mut SecureContext<R>,
    weights: &'a mut [Vec<SharedMatrix<R>>],
}

impl<'a, R: SecureRing> LayerOps for Shares<'a, R> {
    type M = SharedMatrix<R>;
    type Mask = PlainMatrix;
    /// The shared targets and the client's plaintext copy (for the loss
    /// value, computed client-side from the revealed predictions).
    type Targets = (&'a SharedMatrix<R>, &'a PlainMatrix);

    fn dims(m: &Self::M) -> (usize, usize) {
        m.shape()
    }
    fn target_dims(y: &Self::Targets) -> (usize, usize) {
        y.0.shape()
    }
    fn mul(&mut self, x: &Self::M, w: Param, at: Product) -> Result<Self::M> {
        let w = &self.weights[w.layer][w.which];
        self.ctx.secure_mul(x, w, at.operands, &at.site.to_string())
    }
    fn mul_by_t(&mut self, d: &Self::M, w: Param, at: Product) -> Result<Self::M> {
        let wt = self.ctx.transpose_shared(&self.weights[w.layer][w.which]);
        self.ctx.secure_mul(d, &wt, at.operands, &at.site.to_string())
    }
    fn mul_t(&mut self, a: &Self::M, d: &Self::M, at: Product) -> Result<Self::M> {
        let a_t = self.ctx.transpose_shared(a);
        self.ctx.secure_mul(&a_t, d, at.operands, &at.site.to_string())
    }
    fn add(&mut self, a: &Self::M, b: &Self::M) -> Result<Self::M> {
        self.ctx.add_shared(a, b)
    }
    fn zeros(&mut self, rows: usize, cols: usize) -> Self::M {
        self.ctx.zeros_shared(rows, cols)
    }
    fn activate(
        &mut self,
        z: Self::M,
        f: Activation,
        site: Site,
    ) -> Result<(Self::M, Option<PlainMatrix>)> {
        if f.is_linear() {
            return Ok((z, None));
        }
        let (a, mask) = self.ctx.secure_activation(
            &z,
            move |x| f.apply(x),
            move |x| f.derivative(x),
            &site.to_string(),
        )?;
        Ok((a, Some(mask)))
    }
    fn ones(rows: usize, cols: usize) -> PlainMatrix {
        PlainMatrix::from_fn(rows, cols, |_, _| 1.0)
    }
    fn mask(&mut self, d: &Self::M, mask: &PlainMatrix) -> Result<Self::M> {
        self.ctx.mask_public(d, mask)
    }
    fn im2col(&mut self, x: &Self::M, shape: &ConvShape) -> Self::M {
        self.ctx.map_local(x, |m| batched_im2col(m, shape))
    }
    fn conv_to_rows(&mut self, y: &Self::M, batch: usize, shape: &ConvShape) -> Self::M {
        self.ctx.map_local(y, |m| conv_to_rows(m, batch, shape))
    }
    fn rows_to_conv(&mut self, d: &Self::M, batch: usize, shape: &ConvShape) -> Self::M {
        self.ctx.map_local(d, |m| rows_to_conv(m, batch, shape))
    }
    fn column_slice(&mut self, x: &Self::M, start: usize, width: usize) -> Self::M {
        self.ctx.map_local(x, |m| column_slice(m, start, width))
    }
    fn pool(&mut self, x: &Self::M, pool: PoolWindow) -> Self::M {
        let summed = self.ctx.map_local(x, |m| pool_window_sum(m, pool));
        self.ctx.scale_public(&summed, pool.scale())
    }
    fn unpool(&mut self, d: &Self::M, pool: PoolWindow) -> Self::M {
        let up = self.ctx.map_local(d, |m| pool_upsample(m, pool));
        self.ctx.scale_public(&up, pool.scale())
    }
    fn update(&mut self, layer: usize, grads: &[Self::M]) -> Result<()> {
        let lr = self.ctx.config().learning_rate;
        for (w, grad) in self.weights[layer].iter_mut().zip(grads) {
            let step = self.ctx.scale_public(grad, lr);
            *w = self.ctx.sub_shared(w, &step)?;
        }
        Ok(())
    }
    /// The loss gradient stays shared; the scalar loss is the client's,
    /// from the revealed predictions.
    fn loss_grad(
        &mut self,
        pred: &Self::M,
        &(y, y_plain): &Self::Targets,
        loss: Loss,
    ) -> Result<(Self::M, f64)> {
        let pred_plain = self.ctx.reveal(pred)?.v;
        let batch = pred.shape().0 as f64;
        let grad = match loss {
            Loss::Mse => {
                let diff = self.ctx.sub_shared(pred, y)?;
                self.ctx.scale_public(&diff, 2.0 / batch)
            }
            Loss::Hinge => {
                // margin = 1 - y o pred; subgradient = -y where margin > 0.
                let yp = self.ctx.secure_hadamard(y, pred, "loss")?;
                let (rows, cols) = pred.shape();
                let ones = self.ctx.share_public(&Self::ones(rows, cols));
                let margin = self.ctx.sub_shared(&ones, &yp)?;
                // Reveal-style mask via the activation mechanism (same
                // leakage profile as activations; see psml-mpc docs).
                let (_, mask) = self.ctx.secure_activation(
                    &margin,
                    |x| x.max(0.0),
                    |x| if x > 0.0 { 1.0 } else { 0.0 },
                    "loss.hinge",
                )?;
                let masked_y = self.ctx.mask_public(y, &mask)?;
                self.ctx.scale_public(&masked_y, -1.0 / batch)
            }
        };
        Ok((grad, loss.value(&pred_plain, y_plain)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerSpec;
    use crate::models::ModelKind;
    use psml_mpc::Fixed64;
    use psml_parallel::Mt19937;

    fn small_cfg() -> EngineConfig {
        EngineConfig::parsecureml()
    }

    #[test]
    fn linear_regression_learns_on_synthetic() {
        let spec = ModelSpec::build(ModelKind::Linear, 64, None, 10).unwrap();
        let mut trainer =
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 7).unwrap();
        // Simple target: mean of features (learnable by linear model).
        let mut rng = Mt19937::new(3);
        let x = PlainMatrix::from_fn(16, 64, |_, _| rng.next_f64());
        let y = PlainMatrix::from_fn(16, 1, |r, _| {
            x.row(r).iter().sum::<f64>() / 64.0
        });
        let first = trainer.train_batch(&x, &y).unwrap();
        let mut last = first;
        for _ in 0..8 {
            last = trainer.train_batch(&x, &y).unwrap();
        }
        assert!(
            last < first * 0.9,
            "loss did not decrease: {first} -> {last}"
        );
    }

    /// Serving windows of 10, 16 and 4 single-row requests, a training
    /// step, then a window of 5, on `kind` over 16 features: the revealed
    /// outputs and weights, and the report.
    fn serve_around_a_step(
        cfg: EngineConfig,
        kind: ModelKind,
    ) -> (Vec<PlainMatrix>, Vec<Vec<PlainMatrix>>, String) {
        let spec = ModelSpec::build(kind, 16, None, 3).unwrap();
        let mut t = SecureTrainer::<Fixed64>::new(cfg, spec, 23).unwrap();
        let mut rng = Mt19937::new(4);
        let mut outputs = Vec::new();
        for width in [10, 16, 4, 0, 5] {
            if width == 0 {
                let x = PlainMatrix::from_fn(2, 16, |_, _| rng.next_f64() - 0.5);
                let n = t.spec().outputs;
                let y = PlainMatrix::from_fn(2, n, |r, c| if c == r % n { 1.0 } else { 0.0 });
                t.train_batch(&x, &y).unwrap();
                continue;
            }
            let row = |_| PlainMatrix::from_fn(1, 16, |_, _| rng.next_f64() - 0.5);
            let xs: Vec<PlainMatrix> = (0..width).map(row).collect();
            t.declare_forward(xs.iter().map(PlainMatrix::rows)).unwrap();
            for x in &xs {
                outputs.push(t.infer_prescheduled(x).unwrap());
            }
        }
        (outputs, t.reveal_weights(), format!("{:?}", t.report()))
    }

    // A provider lookahead that re-opens a served weight fails here: the
    // worker's dealer replaces `M_W`, and the next window's `Z` is dealt
    // against the wrong mask.
    #[test]
    fn served_windows_around_a_step_are_bit_identical_with_and_without_prefetch() {
        let inline = EngineConfig::parsecureml().with_insecure_reuse_triples(false);
        let prefetch = EngineConfig::parsecureml().with_prefetch(true);
        for kind in [ModelKind::Logistic, ModelKind::Mlp, ModelKind::Rnn] {
            let want = serve_around_a_step(inline.clone(), kind);
            let got = serve_around_a_step(prefetch.clone(), kind);
            assert_eq!(got.0, want.0, "{kind:?}: outputs");
            assert_eq!(got.1, want.1, "{kind:?}: weights");
            assert_eq!(got.2, want.2, "{kind:?}: report");
        }
    }

    #[test]
    fn mlp_forward_backward_runs_and_reports() {
        let spec = ModelSpec::build(ModelKind::Mlp, 32, None, 4).unwrap();
        let mut trainer =
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 11).unwrap();
        let mut rng = Mt19937::new(5);
        let x = PlainMatrix::from_fn(8, 32, |_, _| rng.next_f64());
        let y = PlainMatrix::from_fn(8, 4, |r, c| if c == r % 4 { 1.0 } else { 0.0 });
        let loss = trainer.train_batch(&x, &y).unwrap();
        assert!(loss.is_finite() && loss >= 0.0);
        let report = trainer.report();
        assert!(report.secure_muls >= 6, "3 fwd + >=3 bwd muls");
        assert!(report.online_time.as_secs() > 0.0);
        assert!(report.offline_time.as_secs() > 0.0);
    }

    #[test]
    fn secure_inference_matches_plain_forward() {
        // With revealed weights, a plaintext forward pass must agree with
        // the secure inference outputs, on cached and on fresh triples.
        let fresh = small_cfg().with_insecure_reuse_triples(false);
        for cfg in [small_cfg(), fresh] {
            let spec = ModelSpec::build(ModelKind::Linear, 16, None, 10).unwrap();
            let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 13).unwrap();
            let mut rng = Mt19937::new(9);
            let w = trainer.reveal_weights()[0][0].clone();
            // On fresh triples the first request opens the weight and the
            // later ones read that opening.
            for tag in 3..6 {
                let x = PlainMatrix::from_fn(4, 16, |_, _| rng.next_f64() - 0.5);
                let resp = trainer
                    .infer_request(&InferRequest::new(x.clone()).with_tag(tag))
                    .unwrap();
                assert_eq!(resp.tag, tag);
                assert_eq!(resp.model, crate::serve::ModelId::DIRECT);
                assert!(resp.latency.as_secs() > 0.0);
                assert_eq!(resp.report.window, 1);
                assert!(resp.report.secure_muls > 0);
                let diff = resp.output.max_abs_diff(&x.matmul(&w));
                assert!(diff < 5e-3, "diff {diff}");
            }
        }
    }

    #[test]
    fn train_epochs_shares_inputs_once() {
        let spec = ModelSpec::build(ModelKind::Linear, 2048, None, 10).unwrap();
        let mut cfg = small_cfg();
        cfg.learning_rate = 1e-4;
        let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 19).unwrap();
        let r1 = trainer
            .train_epochs(psml_data::DatasetKind::Synthetic, 4, 1, 2, 3)
            .unwrap();
        assert_eq!(r1.losses.len(), 2);
        // Offline time after the epochs equals offline time after sharing:
        // epochs add no new offline work (shares + cached triples reused).
        let offline_now = trainer.report().offline_time;
        assert_eq!(
            r1.report.offline_time.as_secs(),
            offline_now.as_secs()
        );
    }

    #[test]
    fn train_epochs_is_the_loop_over_its_three_pieces() {
        use crate::session::weights_digest;
        let synthetic = psml_data::DatasetKind::Synthetic;
        let fresh = || {
            let spec = ModelSpec::for_dataset(ModelKind::Mlp, synthetic).unwrap();
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 19).unwrap()
        };
        let mut whole = fresh();
        let want = whole.train_epochs(synthetic, 8, 2, 2, 3).unwrap();

        let mut by_hand = fresh();
        let plan = by_hand.share_plan(synthetic, 8, 2, 3).unwrap();
        let mut losses = Vec::new();
        for epoch in 0..2 {
            let (ckpt, loss) = by_hand.train_epoch(&plan, epoch).unwrap();
            assert_eq!(ckpt.epoch, epoch + 1);
            losses.push(loss);
        }
        let accuracy = by_hand.score(&plan).unwrap();

        assert_eq!(losses, want.losses);
        assert_eq!(accuracy, want.accuracy);
        assert_eq!(
            weights_digest(&by_hand.reveal_weights()),
            weights_digest(&whole.reveal_weights())
        );
        assert_eq!(format!("{:?}", by_hand.report()), format!("{:?}", want.report));
    }

    #[test]
    fn empty_plans_are_typed_errors() {
        let spec = ModelSpec::build(ModelKind::Linear, 2048, None, 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 19).unwrap();
        let synthetic = psml_data::DatasetKind::Synthetic;
        let offline_before = trainer.report().offline_time;
        // (batch_size, batches): `--batches 0` used to panic, `--batch 0`
        // to report a NaN loss.
        for (batch_size, batches) in [(4, 0), (0, 1)] {
            let shape = |r: EngineError| matches!(r, EngineError::Shape(_));
            assert!(shape(trainer.train_epochs(synthetic, batch_size, batches, 1, 3).unwrap_err()));
            assert!(shape(trainer.train(synthetic, batch_size, batches, 3).unwrap_err()));
            assert!(shape(trainer.evaluate(synthetic, batch_size, batches, 3).unwrap_err()));
        }
        assert_eq!(trainer.report().offline_time, offline_before, "nothing was shared");
    }

    #[test]
    fn evaluate_reports_aggregate_accuracy() {
        let spec = ModelSpec::build(ModelKind::Logistic, 2048, None, 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 23).unwrap();
        let res = trainer
            .evaluate(psml_data::DatasetKind::Synthetic, 4, 2, 7)
            .unwrap();
        assert!((0.0..=1.0).contains(&res.accuracy));
        assert_eq!(res.outputs.shape(), (4, 1));
        assert!(res.report.online_time.as_secs() > 0.0);
    }

    #[test]
    fn targets_follow_model_loss() {
        let data = psml_data::batch(psml_data::DatasetKind::Mnist, 4, 0, 5);
        let mk = |kind| {
            let spec = ModelSpec::build(kind, 784, Some((1, 28, 28)), 10).unwrap();
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 3).unwrap()
        };
        let mlp = mk(ModelKind::Mlp);
        assert_eq!(mlp.targets_for(&data).shape(), (4, 10), "one-hot");
        let lin = mk(ModelKind::Linear);
        assert_eq!(lin.targets_for(&data).shape(), (4, 1), "scalar");
        let svm = mk(ModelKind::Svm);
        let t = svm.targets_for(&data);
        assert!(t.as_slice().iter().all(|&v| v == 1.0 || v == -1.0), "+-1");
    }

    #[test]
    fn cnn_trains_on_small_images() {
        let spec = ModelSpec::build(ModelKind::Cnn, 64, Some((1, 8, 8)), 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 29).unwrap();
        let mut rng = Mt19937::new(7);
        let x = PlainMatrix::from_fn(4, 64, |_, _| rng.next_f64());
        let y = PlainMatrix::from_fn(4, 10, |r, c| if c == r { 1.0 } else { 0.0 });
        let loss = trainer.train_batch(&x, &y).unwrap();
        assert!(loss.is_finite());
        // Conv layer => im2col path, so more than one secure mul happened.
        assert!(trainer.report().secure_muls >= 4);
    }

    #[test]
    fn rnn_trains_on_sequences() {
        let spec = ModelSpec::build(ModelKind::Rnn, 64, None, 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 31).unwrap();
        let mut rng = Mt19937::new(9);
        let x = PlainMatrix::from_fn(4, 64, |_, _| rng.next_f64());
        let y = PlainMatrix::from_fn(4, 10, |r, c| if c == r { 1.0 } else { 0.0 });
        let loss = trainer.train_batch(&x, &y).unwrap();
        assert!(loss.is_finite());
        // 4 steps x 2 muls forward + >= 3 backward.
        assert!(trainer.report().secure_muls >= 10);
    }

    #[test]
    fn secure_pooled_cnn_matches_plain() {
        use crate::baseline::{PlainBackend, PlainModel};
        // Custom model: conv 8x8 k3 f2 -> avgpool 2 -> dense 18 -> 4.
        let shape = ConvShape {
            channels: 1,
            height: 8,
            width: 8,
            kernel: 3,
            filters: 2,
        };
        let spec = ModelSpec {
            kind: crate::models::ModelKind::Cnn,
            layers: vec![
                LayerSpec::Conv2D {
                    shape,
                    activation: Activation::None,
                },
                LayerSpec::AvgPool2D {
                    channels: 2,
                    grid_h: 6,
                    grid_w: 6,
                    window: 2,
                },
                LayerSpec::Dense {
                    inputs: 2 * 3 * 3,
                    outputs: 4,
                    activation: Activation::None,
                },
            ],
            loss: Loss::Mse,
            outputs: 4,
        };
        spec.validate().unwrap();
        let mut secure =
            SecureTrainer::<Fixed64>::new(small_cfg(), spec.clone(), 41).unwrap();
        let mut plain =
            PlainModel::new(small_cfg(), spec, PlainBackend::Cpu, 41).unwrap();
        let mut rng = Mt19937::new(13);
        let x = PlainMatrix::from_fn(3, 64, |_, _| rng.next_f64());
        let s_out = secure
            .infer_request(&InferRequest::new(x.clone()))
            .unwrap()
            .output;
        let p_out = plain.infer_batch(&x).unwrap();
        assert!(
            s_out.max_abs_diff(&p_out) < 2e-2,
            "pooled CNN secure/plain diverged by {}",
            s_out.max_abs_diff(&p_out)
        );
        // And a training step runs cleanly through the pool backward path.
        let y = PlainMatrix::from_fn(3, 4, |r, c| if c == r { 1.0 } else { 0.0 });
        let loss = secure.train_batch(&x, &y).unwrap();
        assert!(loss.is_finite());
    }

    #[test]
    fn reveal_weights_shapes_match_spec() {
        let spec = ModelSpec::build(ModelKind::Rnn, 64, None, 10).unwrap();
        let trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec.clone(), 37).unwrap();
        let weights = trainer.reveal_weights();
        assert_eq!(weights.len(), spec.layers.len());
        for (layer, ws) in spec.layers.iter().zip(&weights) {
            let shapes: Vec<_> = ws.iter().map(|w| w.shape()).collect();
            assert_eq!(shapes, layer.weight_shapes());
        }
    }

    #[test]
    fn checkpoint_roundtrip_restores_weights_exactly() {
        let spec = ModelSpec::build(ModelKind::Mlp, 32, None, 4).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec.clone(), 43).unwrap();
        let mut rng = Mt19937::new(17);
        let x = PlainMatrix::from_fn(8, 32, |_, _| rng.next_f64());
        let y = PlainMatrix::from_fn(8, 4, |r, c| if c == r % 4 { 1.0 } else { 0.0 });
        trainer.train_batch(&x, &y).unwrap();
        let ckpt = trainer.checkpoint(3);
        assert_eq!(ckpt.epoch, 3);

        // A fresh trainer (different init seed) resumed from the
        // checkpoint reveals bit-identical weights: Fixed64's
        // encode/decode roundtrip is exact for in-range values.
        let mut resumed = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 999).unwrap();
        let at = resumed.resume_from_checkpoint(&ckpt).unwrap();
        assert_eq!(at, 3);
        assert_eq!(resumed.reveal_weights(), ckpt.weights);
        assert_eq!(resumed.last_checkpoint().unwrap().epoch, 3);
        // And the resumed model still trains.
        assert!(resumed.train_batch(&x, &y).unwrap().is_finite());
    }

    #[test]
    fn train_epochs_records_epoch_boundary_checkpoints() {
        let spec = ModelSpec::build(ModelKind::Linear, 2048, None, 10).unwrap();
        let mut trainer = SecureTrainer::<Fixed64>::new(small_cfg(), spec, 47).unwrap();
        assert!(trainer.last_checkpoint().is_none());
        trainer
            .train_epochs(psml_data::DatasetKind::Synthetic, 4, 1, 3, 5)
            .unwrap();
        let ckpt = trainer.last_checkpoint().expect("checkpoint after epochs");
        assert_eq!(ckpt.epoch, 3);
        assert_eq!(ckpt.weights, trainer.reveal_weights());
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let spec = ModelSpec::build(ModelKind::Linear, 16, None, 10).unwrap();
        let mut trainer =
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 17).unwrap();
        let x = PlainMatrix::zeros(4, 8);
        let y = PlainMatrix::zeros(4, 1);
        assert!(matches!(
            trainer.train_batch(&x, &y).unwrap_err(),
            EngineError::Shape(_)
        ));
    }
}
