//! The six benchmark models of the paper's evaluation (Sec. 7.1).

use crate::error::{EngineError, Result};
use crate::layers::{Activation, LayerSpec};
use crate::walk::{self, Shapes};
use psml_mpc::{Deal, PlainMatrix, Secret};
use psml_tensor::ConvShape;
use std::collections::HashSet;

/// Which benchmark to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Convolutional neural network: one 5x5 conv layer + two dense layers.
    Cnn,
    /// Multilayer perceptron: 128 -> 64 -> 10 dense stack.
    Mlp,
    /// Elman RNN over the SYNTHETIC sequence data.
    Rnn,
    /// Linear regression (single linear output).
    Linear,
    /// Logistic regression (piecewise-sigmoid output).
    Logistic,
    /// Linear SVM trained with hinge-loss subgradients.
    ///
    /// *Substitution note:* the paper trains SVM with SMO; a dual SMO solve
    /// is not expressible as triplet multiplications, and the paper itself
    /// evaluates the SVM like the other models (its inference is
    /// `w^T x + b`). We train the same linear-SVM objective by subgradient
    /// descent, which uses the identical secure-GEMM path.
    Svm,
}

impl ModelKind {
    /// All six benchmarks in the paper's order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Cnn,
        ModelKind::Mlp,
        ModelKind::Rnn,
        ModelKind::Linear,
        ModelKind::Logistic,
        ModelKind::Svm,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Cnn => "CNN",
            ModelKind::Mlp => "MLP",
            ModelKind::Rnn => "RNN",
            ModelKind::Linear => "linear",
            ModelKind::Logistic => "logistic",
            ModelKind::Svm => "SVM",
        }
    }

    /// The lower-case spelling used on command lines and in session
    /// `begin` frames.
    pub fn token(self) -> &'static str {
        match self {
            ModelKind::Cnn => "cnn",
            ModelKind::Mlp => "mlp",
            ModelKind::Rnn => "rnn",
            ModelKind::Linear => "linear",
            ModelKind::Logistic => "logistic",
            ModelKind::Svm => "svm",
        }
    }

    /// Inverse of [`ModelKind::token`] (exact match).
    pub fn from_token(s: &str) -> Option<ModelKind> {
        Self::ALL.into_iter().find(|k| k.token() == s)
    }
}

/// Training loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// Mean squared error (regression + the paper's classification setup).
    Mse,
    /// Hinge loss with +-1 labels (SVM).
    Hinge,
}

impl Loss {
    /// The batch loss of plaintext predictions against targets, summed
    /// over elements and divided by the batch size.
    pub(crate) fn value(self, pred: &PlainMatrix, y: &PlainMatrix) -> f64 {
        let batch = pred.rows() as f64;
        match self {
            Loss::Mse => pred.sub(y).as_slice().iter().map(|e| e * e).sum::<f64>() / batch,
            Loss::Hinge => {
                let margins = pred.as_slice().iter().zip(y.as_slice());
                margins.map(|(&p, &y)| (1.0 - y * p).max(0.0)).sum::<f64>() / batch
            }
        }
    }
}

/// A complete model description.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Which benchmark this is.
    pub kind: ModelKind,
    /// Layer stack, first to last.
    pub layers: Vec<LayerSpec>,
    /// Training loss.
    pub loss: Loss,
    /// Output width (1 for regression/SVM, `classes` otherwise).
    pub outputs: usize,
}

impl ModelSpec {
    /// The paper's architecture for `kind` at `dataset`'s geometry.
    pub fn for_dataset(kind: ModelKind, dataset: psml_data::DatasetKind) -> Result<ModelSpec> {
        let data = dataset.spec();
        let image = Some((data.channels, data.height, data.width));
        ModelSpec::build(kind, data.features(), image, data.classes)
    }

    /// Builds the paper's architecture for `kind` on inputs of
    /// `features` flattened features (with optional image geometry for the
    /// CNN) and `classes` classes.
    pub fn build(
        kind: ModelKind,
        features: usize,
        image: Option<(usize, usize, usize)>,
        classes: usize,
    ) -> Result<ModelSpec> {
        let spec = match kind {
            ModelKind::Cnn => {
                let (channels, height, width) = image.ok_or_else(|| {
                    EngineError::config("CNN requires image geometry")
                })?;
                if channels * height * width != features {
                    return Err(EngineError::config(format!(
                        "image {channels}x{height}x{width} != features {features}"
                    )));
                }
                let kernel = 5.min(height).min(width);
                let shape = ConvShape {
                    channels,
                    height,
                    width,
                    kernel,
                    filters: 8,
                };
                let conv_out = shape.patches() * shape.filters;
                ModelSpec {
                    kind,
                    layers: vec![
                        LayerSpec::Conv2D {
                            shape,
                            activation: Activation::Relu,
                        },
                        LayerSpec::Dense {
                            inputs: conv_out,
                            outputs: 64,
                            activation: Activation::Relu,
                        },
                        LayerSpec::Dense {
                            inputs: 64,
                            outputs: classes,
                            activation: Activation::None,
                        },
                    ],
                    loss: Loss::Mse,
                    outputs: classes,
                }
            }
            ModelKind::Mlp => ModelSpec {
                kind,
                layers: vec![
                    LayerSpec::Dense {
                        inputs: features,
                        outputs: 128,
                        activation: Activation::Relu,
                    },
                    LayerSpec::Dense {
                        inputs: 128,
                        outputs: 64,
                        activation: Activation::Relu,
                    },
                    LayerSpec::Dense {
                        inputs: 64,
                        outputs: classes,
                        activation: Activation::None,
                    },
                ],
                loss: Loss::Mse,
                outputs: classes,
            },
            ModelKind::Rnn => {
                let seq_len = 4;
                if !features.is_multiple_of(seq_len) {
                    return Err(EngineError::config(format!(
                        "RNN needs features divisible by seq_len={seq_len}, got {features}"
                    )));
                }
                let hidden = 32;
                ModelSpec {
                    kind,
                    layers: vec![
                        LayerSpec::Rnn {
                            step_inputs: features / seq_len,
                            hidden,
                            seq_len,
                            activation: Activation::Piecewise,
                        },
                        LayerSpec::Dense {
                            inputs: hidden,
                            outputs: classes,
                            activation: Activation::None,
                        },
                    ],
                    loss: Loss::Mse,
                    outputs: classes,
                }
            }
            ModelKind::Linear => ModelSpec {
                kind,
                layers: vec![LayerSpec::Dense {
                    inputs: features,
                    outputs: 1,
                    activation: Activation::None,
                }],
                loss: Loss::Mse,
                outputs: 1,
            },
            ModelKind::Logistic => ModelSpec {
                kind,
                layers: vec![LayerSpec::Dense {
                    inputs: features,
                    outputs: 1,
                    activation: Activation::Piecewise,
                }],
                loss: Loss::Mse,
                outputs: 1,
            },
            ModelKind::Svm => ModelSpec {
                kind,
                layers: vec![LayerSpec::Dense {
                    inputs: features,
                    outputs: 1,
                    activation: Activation::None,
                }],
                loss: Loss::Hinge,
                outputs: 1,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks that consecutive layers' features line up.
    pub fn validate(&self) -> Result<()> {
        if self.layers.is_empty() {
            return Err(EngineError::config("model has no layers"));
        }
        for pair in self.layers.windows(2) {
            if pair[0].output_features() != pair[1].input_features() {
                return Err(EngineError::config(format!(
                    "layer mismatch: {} outputs vs {} inputs",
                    pair[0].output_features(),
                    pair[1].input_features()
                )));
            }
        }
        if self.layers.last().unwrap().output_features() != self.outputs {
            return Err(EngineError::config("output width mismatch"));
        }
        Ok(())
    }

    /// Input features the model consumes.
    pub fn input_features(&self) -> usize {
        self.layers[0].input_features()
    }

    /// The client's plaintext initial weights, layer-major (the `crate::io`
    /// layout): small uniform values in `+-1/sqrt(fan_in)` from a stream
    /// derived from `seed`. The secure trainer shares these; the plaintext
    /// baseline uses them as they are, so both start from the same model.
    pub fn init_weights(&self, seed: u32) -> Vec<Vec<PlainMatrix>> {
        let mut rng = psml_parallel::derived_rng(seed, 0x5EED);
        let mut init = |(rows, cols): (usize, usize)| {
            let bound = 1.0 / (rows as f64).sqrt();
            PlainMatrix::from_fn(rows, cols, |_, _| (rng.next_f64() * 2.0 - 1.0) * bound)
        };
        self.layers
            .iter()
            .map(|layer| layer.weight_shapes().into_iter().map(&mut init).collect())
            .collect()
    }

    /// Maps a dataset batch to this model's target representation: `+-1`
    /// labels under hinge loss, the scalar label for a single output,
    /// one-hot rows otherwise.
    pub fn targets_for(&self, data: &psml_data::Batch) -> PlainMatrix {
        match (self.loss, self.outputs) {
            (Loss::Hinge, _) => data.y_scalar.map(|v| if v > 0.5 { 1.0 } else { -1.0 }),
            (_, 1) => data.y_scalar.clone(),
            _ => data.y_onehot.clone(),
        }
    }

    /// Fraction of rows of `pred` on the same side of the decision rule as
    /// `y` (sign under hinge loss, 0.5 for a single output, arg-max
    /// otherwise).
    pub fn accuracy(&self, pred: &PlainMatrix, y: &PlainMatrix) -> f64 {
        if pred.rows() == 0 {
            return 0.0;
        }
        let correct = (0..pred.rows())
            .filter(|&r| match (self.loss, self.outputs) {
                (Loss::Hinge, _) => (pred[(r, 0)] >= 0.0) == (y[(r, 0)] >= 0.0),
                (_, 1) => (pred[(r, 0)] >= 0.5) == (y[(r, 0)] >= 0.5),
                _ => argmax(pred.row(r)) == argmax(y.row(r)),
            })
            .count();
        correct as f64 / pred.rows() as f64
    }

    /// The products one secure forward pass takes for a batch of `batch`
    /// samples, in the exact order [`crate::SecureTrainer`] multiplies
    /// them: the layer walk over shapes ([`crate::walk`]), as a mask
    /// schedule that continues the earlier passes'
    /// ([`psml_mpc::mask_schedule_from`]). A weight in `open` was opened
    /// by an earlier pass and is only read; any other weight is opened by
    /// its first product, and no forward pass closes a weight — its
    /// opening serves every later pass until the weights change. The
    /// input and an RNN's hidden states open and close within the pass.
    /// So the first pass after the weights change deals, product for
    /// product, what single-use triples deal for a model that reads each
    /// weight once (every model but the RNN), and a later pass deals only
    /// the masks of its input and `Z`. Activations are client-aided and
    /// consume no triples; pooling is local.
    ///
    /// This is what inference and serving declare to the triple provider
    /// ([`crate::TripleProvider`]) before the pass, so that with prefetch
    /// offline generation overlaps online compute.
    pub fn forward_deals(&self, batch: usize, open: &HashSet<Secret>) -> Vec<Deal> {
        let mut shapes = Shapes::default();
        walk::forward(&mut shapes, self, &(batch, self.input_features()))
            .expect("a model's own input shape passes the walk's checks");
        psml_mpc::mask_schedule_from(&shapes.0, open, |s| matches!(s, Secret::Weight { .. }))
    }

    /// The products of one full training step — forward pass, loss
    /// gradient, backward pass — in provisioning order (the backward half
    /// walks the layers in reverse, as [`crate::SecureTrainer`] updates
    /// them), as a mask schedule ([`psml_mpc::mask_schedule`]): each
    /// secret the step multiplies is opened by its first product and read
    /// by the later ones. The loss's Hadamard product (hinge loss) keeps a
    /// single-use triple.
    pub fn step_deals(&self, batch: usize) -> Vec<Deal> {
        let mut shapes = Shapes::default();
        let x = (batch, self.input_features());
        walk::step(&mut shapes, self, &x, &(batch, self.outputs))
            .expect("a model's own batch shapes pass the walk's checks");
        psml_mpc::mask_schedule(&shapes.0)
    }
}

fn argmax(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psml_mpc::TripleSpec;

    /// The hand-derived schedules the walk replaced, kept as the oracle
    /// the walk-derived [`ModelSpec::forward_deals`] and
    /// [`ModelSpec::step_deals`] are checked against.
    fn oracle_forward(spec: &ModelSpec, batch: usize) -> Vec<TripleSpec> {
        let mut sched = Vec::new();
        for layer in &spec.layers {
            match layer {
                LayerSpec::Dense { inputs, outputs, .. } => {
                    sched.push(TripleSpec::Gemm {
                        m: batch,
                        k: *inputs,
                        n: *outputs,
                    });
                }
                LayerSpec::Conv2D { shape, .. } => {
                    sched.push(TripleSpec::Gemm {
                        m: batch * shape.patches(),
                        k: shape.patch_len(),
                        n: shape.filters,
                    });
                }
                LayerSpec::AvgPool2D { .. } => {}
                LayerSpec::Rnn {
                    step_inputs,
                    hidden,
                    seq_len,
                    ..
                } => {
                    for _ in 0..*seq_len {
                        sched.push(TripleSpec::Gemm {
                            m: batch,
                            k: *step_inputs,
                            n: *hidden,
                        });
                        sched.push(TripleSpec::Gemm {
                            m: batch,
                            k: *hidden,
                            n: *hidden,
                        });
                    }
                }
            }
        }
        sched
    }

    fn oracle_step(spec: &ModelSpec, batch: usize) -> Vec<TripleSpec> {
        let mut sched = oracle_forward(spec, batch);
        if spec.loss == Loss::Hinge {
            sched.push(TripleSpec::Hadamard {
                m: batch,
                n: spec.outputs,
            });
        }
        for (li, layer) in spec.layers.iter().enumerate().rev() {
            match layer {
                LayerSpec::Dense { inputs, outputs, .. } => {
                    sched.push(TripleSpec::Gemm {
                        m: *inputs,
                        k: batch,
                        n: *outputs,
                    });
                    if li > 0 {
                        sched.push(TripleSpec::Gemm {
                            m: batch,
                            k: *outputs,
                            n: *inputs,
                        });
                    }
                }
                LayerSpec::Conv2D { shape, .. } => {
                    sched.push(TripleSpec::Gemm {
                        m: shape.patch_len(),
                        k: batch * shape.patches(),
                        n: shape.filters,
                    });
                }
                LayerSpec::AvgPool2D { .. } => {}
                LayerSpec::Rnn {
                    step_inputs, hidden, ..
                } => {
                    sched.push(TripleSpec::Gemm {
                        m: *step_inputs,
                        k: batch,
                        n: *hidden,
                    });
                    sched.push(TripleSpec::Gemm {
                        m: *hidden,
                        k: batch,
                        n: *hidden,
                    });
                }
            }
        }
        sched
    }

    #[test]
    fn walk_schedules_match_the_hand_derived_oracle() {
        let pooled = ModelSpec {
            kind: ModelKind::Cnn,
            layers: vec![
                LayerSpec::Conv2D {
                    shape: ConvShape {
                        channels: 1,
                        height: 8,
                        width: 8,
                        kernel: 3,
                        filters: 2,
                    },
                    activation: Activation::Relu,
                },
                LayerSpec::AvgPool2D {
                    channels: 2,
                    grid_h: 6,
                    grid_w: 6,
                    window: 2,
                },
                LayerSpec::Dense {
                    inputs: 18,
                    outputs: 4,
                    activation: Activation::None,
                },
            ],
            loss: Loss::Mse,
            outputs: 4,
        };
        let mut specs: Vec<ModelSpec> = ModelKind::ALL
            .into_iter()
            .map(|kind| ModelSpec::for_dataset(kind, psml_data::DatasetKind::Mnist).unwrap())
            .collect();
        specs.push(pooled);
        // Both losses on every network, whatever its own.
        let hinged: Vec<ModelSpec> = specs
            .iter()
            .map(|s| ModelSpec {
                loss: match s.loss {
                    Loss::Mse => Loss::Hinge,
                    Loss::Hinge => Loss::Mse,
                },
                ..s.clone()
            })
            .collect();
        specs.extend(hinged);
        for spec in &specs {
            for batch in [1, 7, 64] {
                let what = format!("{:?}/{:?} batch {batch}", spec.kind, spec.loss);
                let none_open = HashSet::new();
                let forward: Vec<_> =
                    spec.forward_deals(batch, &none_open).iter().map(Deal::spec).collect();
                assert_eq!(forward, oracle_forward(spec, batch), "{what}");
                let step: Vec<_> = spec.step_deals(batch).iter().map(Deal::spec).collect();
                assert_eq!(step, oracle_step(spec, batch), "{what}");
            }
        }
    }

    #[test]
    fn all_models_build_on_mnist_shapes() {
        for kind in ModelKind::ALL {
            let spec = ModelSpec::build(kind, 784, Some((1, 28, 28)), 10).unwrap();
            assert_eq!(spec.input_features(), 784, "{kind:?}");
            spec.validate().unwrap();
            let same = ModelSpec::for_dataset(kind, psml_data::DatasetKind::Mnist).unwrap();
            assert_eq!(format!("{same:?}"), format!("{spec:?}"));
        }
    }

    #[test]
    fn model_tokens_roundtrip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(ModelKind::from_token("gpt"), None);
        assert_eq!(ModelKind::from_token("MLP"), None, "case folding is the CLI's business");
    }

    #[test]
    fn cnn_structure_matches_paper() {
        let spec = ModelSpec::build(ModelKind::Cnn, 784, Some((1, 28, 28)), 10).unwrap();
        assert_eq!(spec.layers.len(), 3, "one conv + two dense");
        match &spec.layers[0] {
            LayerSpec::Conv2D { shape, .. } => {
                assert_eq!(shape.kernel, 5);
            }
            other => panic!("expected conv first, got {other:?}"),
        }
        assert_eq!(spec.outputs, 10);
    }

    #[test]
    fn mlp_structure_matches_paper() {
        let spec = ModelSpec::build(ModelKind::Mlp, 784, None, 10).unwrap();
        let widths: Vec<usize> = spec.layers.iter().map(|l| l.output_features()).collect();
        assert_eq!(widths, vec![128, 64, 10]);
    }

    #[test]
    fn regressions_have_single_output() {
        for kind in [ModelKind::Linear, ModelKind::Logistic, ModelKind::Svm] {
            let spec = ModelSpec::build(kind, 100, None, 10).unwrap();
            assert_eq!(spec.outputs, 1);
            assert_eq!(spec.layers.len(), 1);
        }
        assert_eq!(
            ModelSpec::build(ModelKind::Svm, 100, None, 10).unwrap().loss,
            Loss::Hinge
        );
    }

    #[test]
    fn cnn_without_geometry_errors() {
        assert!(ModelSpec::build(ModelKind::Cnn, 784, None, 10).is_err());
        assert!(ModelSpec::build(ModelKind::Cnn, 784, Some((1, 20, 20)), 10).is_err());
    }

    #[test]
    fn a_forward_pass_opens_each_weight_once_and_leaves_it_open() {
        for kind in ModelKind::ALL {
            let spec = ModelSpec::for_dataset(kind, psml_data::DatasetKind::Mnist).unwrap();
            let weights: HashSet<Secret> = (spec.layers.iter().enumerate())
                .flat_map(|(layer, l)| {
                    (0..l.weight_shapes().len()).map(move |which| Secret::Weight { layer, which })
                })
                .collect();
            let mut open = HashSet::new();
            let first = spec.forward_deals(3, &open);
            psml_mpc::follow_openings(&mut open, &first).unwrap();
            assert_eq!(open, weights, "{kind:?}: the first pass leaves every weight open");
            if kind != ModelKind::Rnn {
                // Each weight is read once per pass: single-use triples.
                assert!(first.iter().all(|d| d.opens() == [true, true]), "{kind:?}");
            }
            let later = spec.forward_deals(3, &open);
            assert!(later.iter().all(|d| d.opens() == [true, false]), "{kind:?}");
            psml_mpc::follow_openings(&mut open, &later).unwrap();
            assert_eq!(open, weights, "{kind:?}: a later pass only reads them");
        }
    }

    #[test]
    fn rnn_requires_divisible_features() {
        assert!(ModelSpec::build(ModelKind::Rnn, 783, None, 10).is_err());
        let spec = ModelSpec::build(ModelKind::Rnn, 2048, None, 10).unwrap();
        assert_eq!(spec.forward_deals(1, &HashSet::new()).len(), 2 * 4 + 1);
    }
}
