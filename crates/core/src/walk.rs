//! The layer walk: the one place a [`ModelSpec`]'s layers are interpreted.
//!
//! [`forward`] runs the layer stack; [`step`] runs a training step —
//! forward pass, loss gradient, backward pass in reverse layer order. Both
//! are generic over [`LayerOps`], which three drivers implement:
//!
//! - the secure trainer's, over secret shares (`trainer.rs`): every
//!   product a triplet multiplication, every activation the interactive
//!   reconstruct/re-share step, every update a local share operation;
//! - the plaintext baseline's, over `f64` matrices with simulated-time
//!   charges (`baseline.rs`);
//! - [`Shapes`], which computes nothing and records the Beaver-triple
//!   shape of each product and the secrets its operands are.
//!   [`ModelSpec::forward_deals`] and [`ModelSpec::step_deals`] are this
//!   walk, so the single-use triples a forward pass declares, and the
//!   mask schedule a training step opens each secret by, are the
//!   products the trainer takes.
//!
//! The walk owns the op order, the call-site names ([`Site`]) and the
//! names of the secrets each product reads ([`Product`]); a driver owns
//! what an op computes and what it charges.

use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::layers::{Activation, LayerSpec};
use crate::models::{Loss, ModelSpec};
use psml_mpc::{Operand, Secret, TripleSpec};
use psml_tensor::{im2col_rows, ConvShape, Matrix, Num};
use std::borrow::Cow;
use std::fmt;

/// Where in the walk an op runs. Its `Display` is the call-site key the
/// secure engine derives site ids, compression streams and trace layers
/// from: `l{li}.fwd`, `l{li}.t{t}.x`, `l{li}.bwd.dx`, ..., and `l{li}` /
/// `l{li}.t{t}` for an activation. Only a driver that needs the string
/// formats it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Site {
    layer: usize,
    step: Option<usize>,
    role: &'static str,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.layer)?;
        if let Some(t) = self.step {
            write!(f, ".t{t}")?;
        }
        f.write_str(self.role)
    }
}

/// A product's call site and the secrets its `[left, right]` operands
/// are, as the product reads them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Product {
    pub site: Site,
    pub operands: [Operand; 2],
}

/// `secret`, read as it is.
fn plain(secret: Secret) -> Operand {
    Operand { secret, transposed: false }
}

/// `secret`, read transposed.
fn transposed(secret: Secret) -> Operand {
    Operand { secret, transposed: true }
}

/// One weight matrix: its layer, its index within the layer
/// ([`LayerSpec::weight_shapes`] order) and its shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Param {
    pub layer: usize,
    pub which: usize,
    pub rows: usize,
    pub cols: usize,
}

impl Param {
    /// The secret this weight is.
    fn secret(&self) -> Secret {
        Secret::Weight { layer: self.layer, which: self.which }
    }
}

/// A non-overlapping average pool ([`LayerSpec::AvgPool2D`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoolWindow {
    pub channels: usize,
    pub grid_h: usize,
    pub grid_w: usize,
    pub window: usize,
}

impl PoolWindow {
    /// The public factor of the mean: `1/window^2`.
    pub fn scale(&self) -> f64 {
        1.0 / (self.window * self.window) as f64
    }
}

/// The operations the walk is written in. `M` is a batch-major matrix —
/// shares, plaintext, or only a shape.
pub(crate) trait LayerOps {
    /// A matrix of the driver's carrier.
    type M: Clone;
    /// An activation's 0/1 derivative mask.
    type Mask;
    /// Training targets.
    type Targets;

    /// `(rows, cols)` of `m`.
    fn dims(m: &Self::M) -> (usize, usize);
    /// `(rows, cols)` of the targets.
    fn target_dims(y: &Self::Targets) -> (usize, usize);

    /// The batch enters the model, before the first layer.
    fn load(&mut self, _x: &Self::M) {}
    /// The prediction leaves the model, after the last layer.
    fn unload(&mut self, _y: &Self::M) {}

    /// `x · w`.
    fn mul(&mut self, x: &Self::M, w: Param, at: Product) -> Result<Self::M>;
    /// `d · wᵀ`.
    fn mul_by_t(&mut self, d: &Self::M, w: Param, at: Product) -> Result<Self::M>;
    /// `aᵀ · d`.
    fn mul_t(&mut self, a: &Self::M, d: &Self::M, at: Product) -> Result<Self::M>;
    /// `a + b`.
    fn add(&mut self, a: &Self::M, b: &Self::M) -> Result<Self::M>;
    /// An all-zeros matrix.
    fn zeros(&mut self, rows: usize, cols: usize) -> Self::M;
    /// Applies `f`; returns the mask only for a non-linear `f`.
    fn activate(
        &mut self,
        z: Self::M,
        f: Activation,
        site: Site,
    ) -> Result<(Self::M, Option<Self::Mask>)>;
    /// An all-ones mask.
    fn ones(rows: usize, cols: usize) -> Self::Mask;
    /// `d ∘ mask`.
    fn mask(&mut self, d: &Self::M, mask: &Self::Mask) -> Result<Self::M>;
    /// [`batched_im2col`].
    fn im2col(&mut self, x: &Self::M, shape: &ConvShape) -> Self::M;
    /// [`conv_to_rows`].
    fn conv_to_rows(&mut self, y: &Self::M, batch: usize, shape: &ConvShape) -> Self::M;
    /// [`rows_to_conv`].
    fn rows_to_conv(&mut self, d: &Self::M, batch: usize, shape: &ConvShape) -> Self::M;
    /// [`column_slice`].
    fn column_slice(&mut self, x: &Self::M, start: usize, width: usize) -> Self::M;
    /// Window mean: [`pool_window_sum`] scaled by [`PoolWindow::scale`].
    fn pool(&mut self, x: &Self::M, pool: PoolWindow) -> Self::M;
    /// Its adjoint: [`pool_upsample`] scaled by [`PoolWindow::scale`].
    fn unpool(&mut self, d: &Self::M, pool: PoolWindow) -> Self::M;
    /// `w -= lr · grad` for each of `layer`'s weights, in order.
    fn update(&mut self, layer: usize, grads: &[Self::M]) -> Result<()>;
    /// The loss gradient w.r.t. `pred` and the scalar loss.
    fn loss_grad(&mut self, pred: &Self::M, y: &Self::Targets, loss: Loss)
        -> Result<(Self::M, f64)>;
}

/// What the forward pass keeps of a layer for the backward pass.
enum Saved<'a, M: Clone, K> {
    Dense {
        /// The layer's input: the caller's batch for the first layer
        /// (borrowed, not copied), the previous activation after that.
        x: Cow<'a, M>,
        mask: Option<K>,
        w: Param,
    },
    Conv {
        patches: M,
        mask: Option<K>,
        shape: ConvShape,
    },
    Pool(PoolWindow),
    /// The last time step only (truncated BPTT).
    Rnn { x: M, h_prev: M, mask: K, step: usize },
}

/// The checks both model drivers make before building anything: a
/// consistent engine config and model.
pub(crate) fn check_model(cfg: &EngineConfig, spec: &ModelSpec) -> Result<()> {
    cfg.validate()?;
    spec.validate()
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

/// A batch of `x` inputs (and `y` targets, when training) fits `spec`.
pub(crate) fn check_batch(
    spec: &ModelSpec,
    x: (usize, usize),
    y: Option<(usize, usize)>,
) -> Result<()> {
    if x.1 != spec.input_features() {
        return Err(EngineError::Shape(format!(
            "batch features {} != model features {}",
            x.1,
            spec.input_features()
        )));
    }
    match y {
        Some(y) if y != (x.0, spec.outputs) => Err(EngineError::Shape(format!(
            "targets {y:?} != expected {:?}",
            (x.0, spec.outputs)
        ))),
        _ => Ok(()),
    }
}

/// The forward pass over `x`: the model's output.
pub(crate) fn forward<O: LayerOps>(ops: &mut O, spec: &ModelSpec, x: &O::M) -> Result<O::M> {
    let x_dims = O::dims(x);
    check_batch(spec, x_dims, None)?;
    run_forward(ops, spec, x, None)
}

/// One training step on `(x, y)`: forward, loss gradient, backward with
/// every weight updated. Returns the loss.
pub(crate) fn step<O: LayerOps>(
    ops: &mut O,
    spec: &ModelSpec,
    x: &O::M,
    y: &O::Targets,
) -> Result<f64> {
    let (x_dims, y_dims) = (O::dims(x), O::target_dims(y));
    check_batch(spec, x_dims, Some(y_dims))?;
    let mut tape = Vec::with_capacity(spec.layers.len());
    let pred = run_forward(ops, spec, x, Some(&mut tape))?;
    let (d, loss) = ops.loss_grad(&pred, y, spec.loss)?;
    backward(ops, tape, d, x_dims.0)?;
    Ok(loss)
}

fn run_forward<'a, O: LayerOps>(
    ops: &mut O,
    spec: &ModelSpec,
    x: &'a O::M,
    mut tape: Option<&mut Vec<Saved<'a, O::M, O::Mask>>>,
) -> Result<O::M> {
    let batch = O::dims(x).0;
    ops.load(x);
    let mut cur = Cow::Borrowed(x);
    for (li, layer) in spec.layers.iter().enumerate() {
        let site = |step, role| Site { layer: li, step, role };
        let param = |which, rows, cols| Param { layer: li, which, rows, cols };
        // `left * w` at `site`.
        let forward = |site, left, w: Param| Product {
            site,
            operands: [plain(left), plain(w.secret())],
        };
        let input = Secret::Act { layer: li, step: 0 };
        let (next, saved) = match *layer {
            LayerSpec::Dense { inputs, outputs, activation } => {
                let w = param(0, inputs, outputs);
                let z = ops.mul(&cur, w, forward(site(None, ".fwd"), input, w))?;
                let (a, mask) = ops.activate(z, activation, site(None, ""))?;
                (a, Saved::Dense { x: cur, mask, w })
            }
            LayerSpec::Conv2D { shape, activation } => {
                let patches = ops.im2col(&cur, &shape);
                let w = param(0, shape.patch_len(), shape.filters);
                let z = ops.mul(&patches, w, forward(site(None, ".fwd"), input, w))?;
                let (a, mask) = ops.activate(z, activation, site(None, ""))?;
                let flat = ops.conv_to_rows(&a, batch, &shape);
                (flat, Saved::Conv { patches, mask, shape })
            }
            LayerSpec::AvgPool2D { channels, grid_h, grid_w, window } => {
                let pool = PoolWindow { channels, grid_h, grid_w, window };
                (ops.pool(&cur, pool), Saved::Pool(pool))
            }
            LayerSpec::Rnn { step_inputs, hidden, seq_len, activation } => {
                let (wx, wh) = (param(0, step_inputs, hidden), param(1, hidden, hidden));
                let mut h = ops.zeros(batch, hidden);
                let mut last = None;
                let mut last_mask = None;
                for t in 0..seq_len {
                    let x_t = ops.column_slice(&cur, t * step_inputs, step_inputs);
                    let x_secret = Secret::Act { layer: li, step: t };
                    let zx = ops.mul(&x_t, wx, forward(site(Some(t), ".x"), x_secret, wx))?;
                    let h_secret = Secret::Hidden { layer: li, step: t };
                    let zh = ops.mul(&h, wh, forward(site(Some(t), ".h"), h_secret, wh))?;
                    let z = ops.add(&zx, &zh)?;
                    let (h_new, mask) = ops.activate(z, activation, site(Some(t), ""))?;
                    last = Some((x_t, std::mem::replace(&mut h, h_new)));
                    last_mask = mask.or(last_mask);
                }
                let (x, h_prev) = last.expect("seq_len >= 1");
                let mask = last_mask.unwrap_or_else(|| O::ones(batch, hidden));
                (h, Saved::Rnn { x, h_prev, mask, step: seq_len - 1 })
            }
        };
        if let Some(tape) = tape.as_deref_mut() {
            tape.push(saved);
        }
        cur = Cow::Owned(next);
    }
    let out = cur.into_owned();
    ops.unload(&out);
    Ok(out)
}

/// The backward pass from the loss gradient `d` (w.r.t. the model's
/// output), last layer first, updating each layer's weights in place.
fn backward<O: LayerOps>(
    ops: &mut O,
    tape: Vec<Saved<'_, O::M, O::Mask>>,
    mut d: O::M,
    batch: usize,
) -> Result<()> {
    for (li, saved) in tape.into_iter().enumerate().rev() {
        let site = |role| Site { layer: li, step: None, role };
        let grad = Secret::Grad { layer: li };
        // `left^T * dz` at `role`.
        let weight_grad = |role, left| Product {
            site: site(role),
            operands: [transposed(left), plain(grad)],
        };
        let input = Secret::Act { layer: li, step: 0 };
        match saved {
            Saved::Dense { x, mask, w } => {
                let dz = match mask {
                    Some(m) => ops.mask(&d, &m)?,
                    None => d,
                };
                let dw = ops.mul_t(&x, &dz, weight_grad(".bwd.dw", input))?;
                let dx = match li {
                    0 => None,
                    _ => {
                        let operands = [plain(grad), transposed(w.secret())];
                        let at = Product { site: site(".bwd.dx"), operands };
                        Some(ops.mul_by_t(&dz, w, at)?)
                    }
                };
                ops.update(li, &[dw])?;
                match dx {
                    Some(dx) => d = dx,
                    None => return Ok(()),
                }
            }
            Saved::Conv { patches, mask, shape } => {
                // d: (batch x patches*filters) -> (batch*patches x filters)
                let dcols = ops.rows_to_conv(&d, batch, &shape);
                let dz = match mask {
                    Some(m) => ops.mask(&dcols, &m)?,
                    None => dcols,
                };
                let dw = ops.mul_t(&patches, &dz, weight_grad(".bwd.dw", input))?;
                ops.update(li, &[dw])?;
                // Conv is the first layer: no dX needed.
            }
            // d(mean-pool): each output gradient broadcast to its window,
            // scaled by 1/window^2. Purely local.
            Saved::Pool(pool) => d = ops.unpool(&d, pool),
            Saved::Rnn { x, h_prev, mask, step } => {
                // Truncated BPTT (one step): gradients flow through the
                // final time step only. Documented simplification; the
                // secure-GEMM path exercised is identical.
                let dz = ops.mask(&d, &mask)?;
                let x_secret = Secret::Act { layer: li, step };
                let dwx = ops.mul_t(&x, &dz, weight_grad(".bwd.dwx", x_secret))?;
                let h_secret = Secret::Hidden { layer: li, step };
                let dwh = ops.mul_t(&h_prev, &dz, weight_grad(".bwd.dwh", h_secret))?;
                ops.update(li, &[dwx, dwh])?;
                // RNN is the first layer in our models: no dX needed.
            }
        }
    }
    Ok(())
}

/// The driver that computes nothing and records, in walk order, the
/// Beaver-triple shape of each product and the secrets its operands are
/// (`None` for the loss's Hadamard product, which keeps a single-use
/// triple). A matrix is its `(rows, cols)`; activations are client-aided
/// and pooling is local, so neither consumes a triple.
#[derive(Default)]
pub(crate) struct Shapes(pub Vec<(TripleSpec, Option<[Operand; 2]>)>);

impl LayerOps for Shapes {
    type M = (usize, usize);
    type Mask = ();
    type Targets = (usize, usize);

    fn dims(m: &Self::M) -> (usize, usize) {
        *m
    }
    fn target_dims(y: &Self::Targets) -> (usize, usize) {
        *y
    }
    fn mul(&mut self, &(m, k): &Self::M, w: Param, at: Product) -> Result<Self::M> {
        self.0.push((TripleSpec::Gemm { m, k, n: w.cols }, Some(at.operands)));
        Ok((m, w.cols))
    }
    fn mul_by_t(&mut self, &(m, k): &Self::M, w: Param, at: Product) -> Result<Self::M> {
        self.0.push((TripleSpec::Gemm { m, k, n: w.rows }, Some(at.operands)));
        Ok((m, w.rows))
    }
    fn mul_t(&mut self, &(k, m): &Self::M, &(_, n): &Self::M, at: Product) -> Result<Self::M> {
        self.0.push((TripleSpec::Gemm { m, k, n }, Some(at.operands)));
        Ok((m, n))
    }
    fn add(&mut self, a: &Self::M, _: &Self::M) -> Result<Self::M> {
        Ok(*a)
    }
    fn zeros(&mut self, rows: usize, cols: usize) -> Self::M {
        (rows, cols)
    }
    fn activate(&mut self, z: Self::M, _: Activation, _: Site) -> Result<(Self::M, Option<()>)> {
        Ok((z, None))
    }
    fn ones(_: usize, _: usize) {}
    fn mask(&mut self, d: &Self::M, _: &()) -> Result<Self::M> {
        Ok(*d)
    }
    fn im2col(&mut self, &(batch, _): &Self::M, shape: &ConvShape) -> Self::M {
        (batch * shape.patches(), shape.patch_len())
    }
    fn conv_to_rows(&mut self, _: &Self::M, batch: usize, shape: &ConvShape) -> Self::M {
        (batch, shape.patches() * shape.filters)
    }
    fn rows_to_conv(&mut self, _: &Self::M, batch: usize, shape: &ConvShape) -> Self::M {
        (batch * shape.patches(), shape.filters)
    }
    fn column_slice(&mut self, &(rows, _): &Self::M, _: usize, width: usize) -> Self::M {
        (rows, width)
    }
    fn pool(&mut self, &(rows, _): &Self::M, p: PoolWindow) -> Self::M {
        (rows, p.channels * (p.grid_h / p.window) * (p.grid_w / p.window))
    }
    fn unpool(&mut self, &(rows, _): &Self::M, p: PoolWindow) -> Self::M {
        (rows, p.channels * p.grid_h * p.grid_w)
    }
    fn update(&mut self, _: usize, _: &[Self::M]) -> Result<()> {
        Ok(())
    }
    fn loss_grad(&mut self, pred: &Self::M, _: &Self::Targets, loss: Loss) -> Result<(Self::M, f64)> {
        if loss == Loss::Hinge {
            // `margin = 1 - y o pred` needs one element-wise triple; the
            // subgradient mask reuses the activation mechanism (no triple).
            self.0.push((TripleSpec::Hadamard { m: pred.0, n: pred.1 }, None));
        }
        Ok((*pred, 0.0))
    }
}

/// `batch x (ch*h*w)` -> `(batch*patches) x patch_len`: each sample's
/// im2col patch rows, written straight into its block of the output.
pub(crate) fn batched_im2col<T: Num>(x: &Matrix<T>, shape: &ConvShape) -> Matrix<T> {
    let block = shape.patches() * shape.patch_len();
    let mut out = Matrix::zeros(x.rows() * shape.patches(), shape.patch_len());
    for s in 0..x.rows() {
        let dst = &mut out.as_mut_slice()[s * block..(s + 1) * block];
        im2col_rows(x.row(s), shape, dst);
    }
    out
}

/// `(batch*patches) x filters` -> `batch x (patches*filters)`.
pub(crate) fn conv_to_rows<T: Num>(y: &Matrix<T>, batch: usize, shape: &ConvShape) -> Matrix<T> {
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
pub(crate) fn pool_window_sum<T: Num>(x: &Matrix<T>, p: PoolWindow) -> Matrix<T> {
    let PoolWindow { channels, grid_h, grid_w, window } = p;
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
pub(crate) fn pool_upsample<T: Num>(d: &Matrix<T>, p: PoolWindow) -> Matrix<T> {
    let PoolWindow { channels, grid_h, grid_w, window } = p;
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

    #[test]
    fn site_keys_spell_the_engine_call_sites() {
        let site = |layer, step, role| Site { layer, step, role }.to_string();
        assert_eq!(site(0, None, ".fwd"), "l0.fwd");
        assert_eq!(site(2, None, ""), "l2");
        assert_eq!(site(1, Some(3), ".h"), "l1.t3.h");
        assert_eq!(site(0, Some(0), ""), "l0.t0");
        assert_eq!(site(4, None, ".bwd.dx"), "l4.bwd.dx");
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

        // Every sample's block is its own im2col, on several channels.
        let shape = ConvShape {
            channels: 2,
            height: 5,
            width: 4,
            kernel: 3,
            filters: 1,
        };
        let x = Matrix::<u64>::from_fn(3, 40, |s, c| (s * 1000 + c * 7) as u64);
        let p = batched_im2col(&x, &shape);
        assert_eq!(p.shape(), (3 * shape.patches(), shape.patch_len()));
        for s in 0..3 {
            let img = Matrix::from_vec(2, 20, x.row(s).to_vec());
            let want = psml_tensor::im2col(&img, &shape);
            for r in 0..shape.patches() {
                let got = p.row(s * shape.patches() + r);
                assert_eq!(got, want.row(r), "sample {s} patch {r}");
            }
        }
    }

    #[test]
    fn pool_helpers_are_adjoint_and_correct() {
        // 2x2 mean over a 4x4 grid, 2 channels, layout (y*gw+x)*ch + c.
        let (ch, gh, gw, w) = (2usize, 4usize, 4usize, 2usize);
        let x = Matrix::<u64>::from_fn(1, ch * gh * gw, |_, j| j as u64);
        let pool = PoolWindow {
            channels: ch,
            grid_h: gh,
            grid_w: gw,
            window: w,
        };
        let sum = pool_window_sum(&x, pool);
        assert_eq!(sum.shape(), (1, ch * 2 * 2));
        // Output (py=0,px=0,c=0) sums inputs at (0,0),(0,1),(1,0),(1,1).
        let expect: u64 = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(y, xx)| ((y * gw + xx) * ch) as u64)
            .sum();
        assert_eq!(sum[(0, 0)], expect);

        // Adjoint check: <sum(x), d> == <x, upsample(d)> over the ring.
        let d = Matrix::<u64>::from_fn(1, ch * 2 * 2, |_, j| (j * j + 1) as u64);
        let up = pool_upsample(&d, pool);
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
}
