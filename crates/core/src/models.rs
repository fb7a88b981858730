//! The six benchmark models of the paper's evaluation (Sec. 7.1).

use crate::error::{EngineError, Result};
use crate::layers::{Activation, LayerSpec};
use psml_mpc::{PlainMatrix, TripleSpec};
use psml_tensor::ConvShape;

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

    /// Total triplet multiplications per forward pass.
    pub fn forward_muls(&self) -> usize {
        self.layers.iter().map(LayerSpec::forward_muls).sum()
    }

    /// The Beaver-triple shapes one secure forward pass consumes for a
    /// batch of `batch` samples, in the exact order
    /// [`crate::SecureTrainer`] provisions them. Activations are
    /// client-aided and consume no triples; pooling is local.
    ///
    /// This is the declaration the prefetch pipeline
    /// ([`crate::TripleProvider`]) runs ahead on: the trainer enqueues it
    /// before the pass so offline generation overlaps online compute.
    pub fn forward_schedule(&self, batch: usize) -> Vec<TripleSpec> {
        let mut sched = Vec::with_capacity(self.forward_muls());
        for layer in &self.layers {
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

    /// The triple shapes of one full training step — forward pass, loss
    /// gradient, backward pass — in provisioning order (the backward half
    /// walks the layers in reverse, mirroring
    /// [`crate::SecureTrainer`]'s update order).
    pub fn step_schedule(&self, batch: usize) -> Vec<TripleSpec> {
        let mut sched = self.forward_schedule(batch);
        if self.loss == Loss::Hinge {
            // `margin = 1 - y o pred` needs one element-wise triple; the
            // subgradient mask reuses the activation mechanism (no triple).
            sched.push(TripleSpec::Hadamard {
                m: batch,
                n: self.outputs,
            });
        }
        for (li, layer) in self.layers.iter().enumerate().rev() {
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
                    // Truncated BPTT: one step of gradients, two weight
                    // matrices.
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
    fn rnn_requires_divisible_features() {
        assert!(ModelSpec::build(ModelKind::Rnn, 783, None, 10).is_err());
        let spec = ModelSpec::build(ModelKind::Rnn, 2048, None, 10).unwrap();
        assert_eq!(spec.forward_muls(), 2 * 4 + 1);
    }
}
