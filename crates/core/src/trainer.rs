//! Secure training and inference over the benchmark models.
//!
//! The trainer interprets a [`ModelSpec`] over secret shares using the
//! [`SecureContext`] primitives: every GEMM is a triplet multiplication
//! (adaptively placed on CPU/GPU, pipelined, with compressed
//! transmission), every activation the interactive reconstruct/re-share
//! step, and every weight update a local share operation. Both forward
//! and backward propagation run securely, as in the paper's Fig. 6.

use crate::config::EngineConfig;
use crate::engine::{SecureContext, SharedMatrix};
use crate::error::{EngineError, Result};
use crate::layers::{Activation, LayerSpec};
use crate::models::{Loss, ModelSpec};
use crate::report::RunReport;
use crate::serve::{InferRequest, InferResponse, RequestReport};
use psml_data::DatasetKind;
use psml_gpu::GpuElement;
use psml_mpc::{PlainMatrix, SecureRing};
#[cfg(test)]
use psml_parallel::Mt19937;
use psml_tensor::{im2col, ConvShape, Matrix, Num};
use std::borrow::Cow;

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

enum Cache<'a, R: SecureRing> {
    Dense {
        /// The layer's input: the caller's shares for the first layer
        /// (borrowed, not copied), the previous activation after that.
        x: Cow<'a, SharedMatrix<R>>,
        mask: Option<PlainMatrix>,
    },
    Conv {
        patches: SharedMatrix<R>,
        mask: Option<PlainMatrix>,
        batch: usize,
        shape: ConvShape,
    },
    Rnn {
        last_x: SharedMatrix<R>,
        last_h_prev: SharedMatrix<R>,
        last_mask: PlainMatrix,
    },
    Pool {
        channels: usize,
        grid_h: usize,
        grid_w: usize,
        window: usize,
    },
}

/// The secure three-party trainer.
pub struct SecureTrainer<R: SecureRing + GpuElement> {
    ctx: SecureContext<R>,
    spec: ModelSpec,
    /// Per layer: its weight matrices as shares (Dense/Conv: 1, RNN: 2).
    weights: Vec<Vec<SharedMatrix<R>>>,
    /// Most recent epoch-boundary snapshot (see [`TrainerCheckpoint`]).
    last_checkpoint: Option<TrainerCheckpoint>,
}

impl<R: SecureRing + GpuElement> SecureTrainer<R> {
    /// Builds the trainer: client initializes plaintext weights (small
    /// uniform) and shares them to the servers (offline phase). An
    /// inconsistent `cfg` or `spec` is an [`EngineError::Config`].
    pub fn new(cfg: EngineConfig, spec: ModelSpec, seed: u32) -> Result<Self> {
        cfg.validate()?;
        spec.validate()?;
        let init = spec.init_weights(seed);
        let mut trainer = SecureTrainer {
            ctx: SecureContext::new(cfg, seed),
            spec,
            weights: Vec::new(),
            last_checkpoint: None,
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
        Ok(())
    }

    fn apply_activation(
        &mut self,
        z: SharedMatrix<R>,
        activation: Activation,
        key: &str,
    ) -> Result<(SharedMatrix<R>, Option<PlainMatrix>)> {
        if activation.is_linear() {
            Ok((z, None))
        } else {
            let (a, mask) = self.ctx.secure_activation(
                &z,
                move |x| activation.apply(x),
                move |x| activation.derivative(x),
                key,
            )?;
            Ok((a, Some(mask)))
        }
    }

    /// Secure forward pass. Returns the (still-shared) outputs and the
    /// caches backward propagation needs.
    fn forward<'a>(
        &mut self,
        x: &'a SharedMatrix<R>,
    ) -> Result<(SharedMatrix<R>, Vec<Cache<'a, R>>)> {
        let batch = x.shape().0;
        let mut cur = Cow::Borrowed(x);
        let mut caches = Vec::with_capacity(self.spec.layers.len());
        for (li, layer) in self.spec.layers.clone().iter().enumerate() {
            match layer {
                LayerSpec::Dense { activation, .. } => {
                    let z =
                        self.ctx
                            .secure_mul_auto(&cur, &self.weights[li][0], &format!("l{li}.fwd"))?;
                    let (a, mask) = self.apply_activation(z, *activation, &format!("l{li}"))?;
                    caches.push(Cache::Dense { x: cur, mask });
                    cur = Cow::Owned(a);
                }
                LayerSpec::Conv2D { shape, activation } => {
                    let shape = *shape;
                    let patches = self
                        .ctx
                        .map_local(&cur, move |m| batched_im2col(m, &shape));
                    let z = self.ctx.secure_mul_auto(
                        &patches,
                        &self.weights[li][0],
                        &format!("l{li}.fwd"),
                    )?;
                    let (a, mask) = self.apply_activation(z, *activation, &format!("l{li}"))?;
                    let flat = self
                        .ctx
                        .map_local(&a, move |m| conv_to_rows(m, batch, &shape));
                    caches.push(Cache::Conv {
                        patches,
                        mask,
                        batch,
                        shape,
                    });
                    cur = Cow::Owned(flat);
                }
                LayerSpec::AvgPool2D {
                    channels,
                    grid_h,
                    grid_w,
                    window,
                } => {
                    let (channels, grid_h, grid_w, window) =
                        (*channels, *grid_h, *grid_w, *window);
                    let summed = self.ctx.map_local(&cur, move |m| {
                        pool_window_sum(m, channels, grid_h, grid_w, window)
                    });
                    // Mean = window sum x public 1/window^2.
                    cur = Cow::Owned(
                        self.ctx
                            .scale_public(&summed, 1.0 / (window * window) as f64),
                    );
                    caches.push(Cache::Pool {
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
                    let (step_inputs, hidden, seq_len) = (*step_inputs, *hidden, *seq_len);
                    let mut h = self.ctx.zeros_shared(batch, hidden);
                    let mut last_x = None;
                    let mut last_h_prev = None;
                    let mut last_mask = None;
                    for t in 0..seq_len {
                        let x_t = self.ctx.map_local(&cur, move |m| {
                            column_slice(m, t * step_inputs, step_inputs)
                        });
                        let zx = self.ctx.secure_mul_auto(
                            &x_t,
                            &self.weights[li][0],
                            &format!("l{li}.t{t}.x"),
                        )?;
                        let zh = self.ctx.secure_mul_auto(
                            &h,
                            &self.weights[li][1],
                            &format!("l{li}.t{t}.h"),
                        )?;
                        let z = self.ctx.add_shared(&zx, &zh)?;
                        let h_prev = h.clone();
                        let (h_new, mask) =
                            self.apply_activation(z, *activation, &format!("l{li}.t{t}"))?;
                        last_x = Some(x_t);
                        last_h_prev = Some(h_prev);
                        last_mask = mask.or(last_mask);
                        h = h_new;
                    }
                    caches.push(Cache::Rnn {
                        last_x: last_x.expect("seq_len >= 1"),
                        last_h_prev: last_h_prev.expect("seq_len >= 1"),
                        last_mask: last_mask
                            .unwrap_or_else(|| PlainMatrix::from_fn(batch, hidden, |_, _| 1.0)),
                    });
                    cur = Cow::Owned(h);
                }
            }
        }
        Ok((cur.into_owned(), caches))
    }

    /// Secure backward pass from the loss gradient `d` (w.r.t. the model's
    /// activated output), updating all weights in place.
    fn backward(&mut self, caches: Vec<Cache<'_, R>>, d: SharedMatrix<R>) -> Result<()> {
        let lr = self.ctx.config().learning_rate;
        let mut d = d;
        for (li, cache) in caches.into_iter().enumerate().rev() {
            match cache {
                Cache::Dense { x, mask } => {
                    let dz = match &mask {
                        Some(m) => self.ctx.mask_public(&d, m)?,
                        None => d.clone(),
                    };
                    let xt = self.ctx.transpose_shared(&x);
                    let dw = self
                        .ctx
                        .secure_mul_auto(&xt, &dz, &format!("l{li}.bwd.dw"))?;
                    if li > 0 {
                        let wt = self.ctx.transpose_shared(&self.weights[li][0]);
                        d = self
                            .ctx
                            .secure_mul_auto(&dz, &wt, &format!("l{li}.bwd.dx"))?;
                    }
                    self.update_weight(li, 0, &dw, lr)?;
                }
                Cache::Conv {
                    patches,
                    mask,
                    batch,
                    shape,
                } => {
                    // d: (batch x patches*filters) -> (batch*patches x filters)
                    let dcols = self
                        .ctx
                        .map_local(&d, move |m| rows_to_conv(m, batch, &shape));
                    let dz = match &mask {
                        Some(m) => self.ctx.mask_public(&dcols, m)?,
                        None => dcols,
                    };
                    let pt = self.ctx.transpose_shared(&patches);
                    let dw = self
                        .ctx
                        .secure_mul_auto(&pt, &dz, &format!("l{li}.bwd.dw"))?;
                    self.update_weight(li, 0, &dw, lr)?;
                    // Conv is the first layer: no dX needed.
                }
                Cache::Pool {
                    channels,
                    grid_h,
                    grid_w,
                    window,
                } => {
                    // d(mean-pool): broadcast each output gradient to its
                    // window, scaled by 1/window^2. Purely local.
                    let up = self.ctx.map_local(&d, move |m| {
                        pool_upsample(m, channels, grid_h, grid_w, window)
                    });
                    d = self
                        .ctx
                        .scale_public(&up, 1.0 / (window * window) as f64);
                }
                Cache::Rnn {
                    last_x,
                    last_h_prev,
                    last_mask,
                } => {
                    // Truncated BPTT (one step): gradients flow through the
                    // final time step only. Documented simplification; the
                    // secure-GEMM path exercised is identical.
                    let dz = self.ctx.mask_public(&d, &last_mask)?;
                    let xt = self.ctx.transpose_shared(&last_x);
                    let dwx = self
                        .ctx
                        .secure_mul_auto(&xt, &dz, &format!("l{li}.bwd.dwx"))?;
                    let ht = self.ctx.transpose_shared(&last_h_prev);
                    let dwh = self
                        .ctx
                        .secure_mul_auto(&ht, &dz, &format!("l{li}.bwd.dwh"))?;
                    self.update_weight(li, 0, &dwx, lr)?;
                    self.update_weight(li, 1, &dwh, lr)?;
                    // RNN is the first layer in our models: no dX needed.
                }
            }
        }
        Ok(())
    }

    fn update_weight(
        &mut self,
        layer: usize,
        which: usize,
        grad: &SharedMatrix<R>,
        lr: f64,
    ) -> Result<()> {
        let step = self.ctx.scale_public(grad, lr);
        let updated = self.ctx.sub_shared(&self.weights[layer][which], &step)?;
        self.weights[layer][which] = updated;
        Ok(())
    }

    /// Computes the loss gradient (shared) and the scalar loss (client
    /// side, from the revealed predictions).
    fn loss_grad(
        &mut self,
        pred: &SharedMatrix<R>,
        pred_plain: &PlainMatrix,
        y: &SharedMatrix<R>,
        y_plain: &PlainMatrix,
    ) -> Result<(SharedMatrix<R>, f64)> {
        let batch = pred.shape().0 as f64;
        match self.spec.loss {
            Loss::Mse => {
                let diff = self.ctx.sub_shared(pred, y)?;
                let grad = self.ctx.scale_public(&diff, 2.0 / batch);
                let loss = pred_plain
                    .sub(y_plain)
                    .as_slice()
                    .iter()
                    .map(|e| e * e)
                    .sum::<f64>()
                    / batch;
                Ok((grad, loss))
            }
            Loss::Hinge => {
                // margin = 1 - y o pred; subgradient = -y where margin > 0.
                let yp = self.ctx.secure_hadamard(y, pred, "loss")?;
                let ones = self
                    .ctx
                    .share_public(&PlainMatrix::from_fn(pred.shape().0, pred.shape().1, |_, _| 1.0));
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
                let grad = self.ctx.scale_public(&masked_y, -1.0 / batch);
                let loss = pred_plain
                    .as_slice()
                    .iter()
                    .zip(y_plain.as_slice())
                    .map(|(&p, &y)| (1.0 - y * p).max(0.0))
                    .sum::<f64>()
                    / batch;
                Ok((grad, loss))
            }
        }
    }

    /// Trains on one plaintext batch `(x, y)`; returns the batch loss.
    /// `x` is `batch x features`; `y` is `batch x outputs` (one-hot,
    /// scalar target, or +-1 labels depending on the model).
    pub fn train_batch(&mut self, x: &PlainMatrix, y: &PlainMatrix) -> Result<f64> {
        if x.cols() != self.spec.input_features() {
            return Err(EngineError::Shape(format!(
                "batch features {} != model features {}",
                x.cols(),
                self.spec.input_features()
            )));
        }
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
        // Declare the whole step's triple shapes up front so the
        // provisioning pipeline generates them concurrently with the
        // online phase (no-op without `prefetch`).
        self.ctx
            .schedule_triples(&self.spec.step_schedule(xs.shape().0));
        let (pred, caches) = self.forward(xs)?;
        let pred_plain = self.ctx.reveal(&pred)?.v;
        let (grad, loss) = self.loss_grad(&pred, &pred_plain, ys, y_plain)?;
        self.backward(caches, grad)?;
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

    /// Typed secure inference: schedules this request's triples, runs the
    /// online pass, reveals the outputs. The same execution path the
    /// serving layer's micro-batcher takes per request (which is why
    /// batched serving is bit-identical to a loop over this call — see
    /// `core::serve`); `latency` here is pure execution time, since a
    /// direct call has no queue.
    pub fn infer_request(&mut self, req: &InferRequest) -> Result<InferResponse> {
        self.ctx
            .schedule_triples(&self.spec.forward_schedule(req.input.rows()));
        let start = self.ctx.online_end();
        let muls_before = self.ctx.report().secure_muls;
        let output = self.infer_prescheduled(&req.input)?;
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

    /// Declares upcoming triple shapes to the provisioning pipeline on
    /// behalf of the serving layer's window fold.
    pub(crate) fn schedule_triples(&mut self, specs: &[psml_mpc::TripleSpec]) {
        self.ctx.schedule_triples(specs);
    }

    /// The online pass of one forward inference, *without* scheduling its
    /// triples — the caller (either [`SecureTrainer::infer_request`] or
    /// the serve micro-batcher's folded window declaration) already did.
    pub(crate) fn infer_prescheduled(&mut self, x: &PlainMatrix) -> Result<PlainMatrix> {
        let xs = self.ctx.share_input(x)?;
        let (pred, _) = self.forward(&xs)?;
        let out = self.ctx.reveal(&pred)?.v;
        self.ctx.barrier();
        Ok(out)
    }

    /// Internal single-batch inference (schedule + online pass) for the
    /// training paths.
    fn infer_plain(&mut self, x: &PlainMatrix) -> Result<PlainMatrix> {
        self.ctx
            .schedule_triples(&self.spec.forward_schedule(x.rows()));
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

/// A run over no batches, or over empty ones, has no loss and no last
/// batch to score: refuse it before anything is shared. Both numbers can
/// arrive from a command line or a session `begin` frame.
pub(crate) fn non_empty_plan(batch_size: usize, batches: usize) -> Result<()> {
    if batch_size == 0 || batches == 0 {
        return Err(EngineError::Shape(format!(
            "a run needs at least one batch of at least one sample, got {batches} x {batch_size}"
        )));
    }
    Ok(())
}

/// `batch x (ch*h*w)` -> `(batch*patches) x patch_len` via per-sample
/// im2col, stacked.
pub(crate) fn batched_im2col<T: Num>(x: &Matrix<T>, shape: &ConvShape) -> Matrix<T> {
    let batch = x.rows();
    let patches = shape.patches();
    let plen = shape.patch_len();
    let mut out = Matrix::zeros(batch * patches, plen);
    for s in 0..batch {
        let img = Matrix::from_vec(
            shape.channels,
            shape.height * shape.width,
            x.row(s).to_vec(),
        );
        let p = im2col(&img, shape);
        for r in 0..patches {
            out.row_mut(s * patches + r).copy_from_slice(p.row(r));
        }
    }
    out
}

/// `(batch*patches) x filters` -> `batch x (patches*filters)`.
pub(crate) fn conv_to_rows<T: Num>(y: &Matrix<T>, batch: usize, shape: &ConvShape) -> Matrix<T> {
    // `n_patches`, not `patches`: a field elsewhere in this file binds
    // `patches` to a secret share, and psml-lint's taint tracking is
    // file-granular — never reuse a secret-typed name for plain data.
    let n_patches = shape.patches();
    let filters = shape.filters;
    debug_assert_eq!(y.shape(), (batch * n_patches, filters));
    Matrix::from_fn(batch, n_patches * filters, |s, j| {
        let (p, f) = (j / filters, j % filters);
        y[(s * n_patches + p, f)]
    })
}

/// Inverse of [`conv_to_rows`].
pub(crate) fn rows_to_conv<T: Num>(d: &Matrix<T>, batch: usize, shape: &ConvShape) -> Matrix<T> {
    // See `conv_to_rows` for why this is not named `patches`.
    let n_patches = shape.patches();
    let filters = shape.filters;
    debug_assert_eq!(d.shape(), (batch, n_patches * filters));
    Matrix::from_fn(batch * n_patches, filters, |r, f| {
        let (s, p) = (r / n_patches, r % n_patches);
        d[(s, p * filters + f)]
    })
}

/// Extracts `width` columns starting at `start`.
pub(crate) fn column_slice<T: Num>(m: &Matrix<T>, start: usize, width: usize) -> Matrix<T> {
    Matrix::from_fn(m.rows(), width, |r, c| m[(r, start + c)])
}

/// Non-overlapping window *sum* over the `(y*grid_w + x)*channels + c`
/// layout; the mean's `1/window^2` factor is applied by the caller (it
/// needs ring truncation on shares).
pub(crate) fn pool_window_sum<T: Num>(
    x: &Matrix<T>,
    channels: usize,
    grid_h: usize,
    grid_w: usize,
    window: usize,
) -> Matrix<T> {
    assert!(grid_h.is_multiple_of(window) && grid_w.is_multiple_of(window));
    debug_assert_eq!(x.cols(), channels * grid_h * grid_w);
    let (oh, ow) = (grid_h / window, grid_w / window);
    Matrix::from_fn(x.rows(), channels * oh * ow, |s, j| {
        let c = j % channels;
        let p = j / channels;
        let (py, px) = (p / ow, p % ow);
        let mut acc = T::zero();
        for wy in 0..window {
            for wx in 0..window {
                let y = py * window + wy;
                let xx = px * window + wx;
                acc = acc.add(x[(s, (y * grid_w + xx) * channels + c)]);
            }
        }
        acc
    })
}

/// Adjoint of [`pool_window_sum`]: broadcasts each pooled gradient back to
/// its window (the caller applies the `1/window^2` factor).
pub(crate) fn pool_upsample<T: Num>(
    d: &Matrix<T>,
    channels: usize,
    grid_h: usize,
    grid_w: usize,
    window: usize,
) -> Matrix<T> {
    let (oh, ow) = (grid_h / window, grid_w / window);
    debug_assert_eq!(d.cols(), channels * oh * ow);
    Matrix::from_fn(d.rows(), channels * grid_h * grid_w, |s, j| {
        let c = j % channels;
        let p = j / channels;
        let (y, x) = (p / grid_w, p % grid_w);
        let (py, px) = (y / window, x / window);
        d[(s, (py * ow + px) * channels + c)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use psml_mpc::Fixed64;

    fn small_cfg() -> EngineConfig {
        EngineConfig::parsecureml()
    }

    #[test]
    fn conv_reshape_helpers_are_inverse() {
        let shape = ConvShape {
            channels: 1,
            height: 5,
            width: 5,
            kernel: 3,
            filters: 2,
        };
        let batch = 3;
        let y = Matrix::<u64>::from_fn(batch * shape.patches(), 2, |r, c| (r * 2 + c) as u64);
        let rows = conv_to_rows(&y, batch, &shape);
        assert_eq!(rows.shape(), (3, shape.patches() * 2));
        assert_eq!(rows_to_conv(&rows, batch, &shape), y);
    }

    #[test]
    fn column_slice_extracts() {
        let m = Matrix::<u64>::from_fn(2, 6, |r, c| (r * 6 + c) as u64);
        let s = column_slice(&m, 2, 3);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s[(1, 0)], 8);
    }

    #[test]
    fn batched_im2col_stacks_samples() {
        let shape = ConvShape {
            channels: 1,
            height: 3,
            width: 3,
            kernel: 2,
            filters: 1,
        };
        let x = Matrix::<u64>::from_fn(2, 9, |s, c| (s * 100 + c) as u64);
        let p = batched_im2col(&x, &shape);
        assert_eq!(p.shape(), (2 * 4, 4));
        // Sample 1's first patch starts with element 100.
        assert_eq!(p[(4, 0)], 100);
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
        // the secure inference outputs.
        let spec = ModelSpec::build(ModelKind::Linear, 16, None, 10).unwrap();
        let mut trainer =
            SecureTrainer::<Fixed64>::new(small_cfg(), spec, 13).unwrap();
        let mut rng = Mt19937::new(9);
        let x = PlainMatrix::from_fn(4, 16, |_, _| rng.next_f64() - 0.5);
        let resp = trainer
            .infer_request(&InferRequest::new(x.clone()).with_tag(3))
            .unwrap();
        assert_eq!(resp.tag, 3);
        assert_eq!(resp.model, crate::serve::ModelId::DIRECT);
        assert!(resp.latency.as_secs() > 0.0);
        assert_eq!(resp.report.window, 1);
        assert!(resp.report.secure_muls > 0);
        let out = resp.output;
        let w = &trainer.reveal_weights()[0][0];
        let expect = x.matmul(w);
        assert!(
            out.max_abs_diff(&expect) < 5e-3,
            "diff {}",
            out.max_abs_diff(&expect)
        );
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
    fn pool_helpers_are_adjoint_and_correct() {
        // 2x2 mean over a 4x4 grid, 2 channels, layout (y*gw+x)*ch + c.
        let (ch, gh, gw, w) = (2usize, 4usize, 4usize, 2usize);
        let x = Matrix::<u64>::from_fn(1, ch * gh * gw, |_, j| j as u64);
        let sum = pool_window_sum(&x, ch, gh, gw, w);
        assert_eq!(sum.shape(), (1, ch * 2 * 2));
        // Output (py=0,px=0,c=0) sums inputs at (0,0),(0,1),(1,0),(1,1).
        let expect: u64 = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(y, xx)| ((y * gw + xx) * ch) as u64)
            .sum();
        assert_eq!(sum[(0, 0)], expect);

        // Adjoint check: <sum(x), d> == <x, upsample(d)> over the ring.
        let d = Matrix::<u64>::from_fn(1, ch * 2 * 2, |_, j| (j * j + 1) as u64);
        let up = pool_upsample(&d, ch, gh, gw, w);
        let lhs: u64 = sum
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .fold(0u64, |a, (&s, &dv)| a.wrapping_add(s.wrapping_mul(dv)));
        let rhs: u64 = x
            .as_slice()
            .iter()
            .zip(up.as_slice())
            .fold(0u64, |a, (&xv, &uv)| a.wrapping_add(xv.wrapping_mul(uv)));
        assert_eq!(lhs, rhs, "pooling operators are not adjoint");
    }

    #[test]
    fn secure_pooled_cnn_matches_plain() {
        use crate::baseline::{PlainBackend, PlainModel};
        use psml_tensor::ConvShape;
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
        let p_out = plain.infer_batch(&x);
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
