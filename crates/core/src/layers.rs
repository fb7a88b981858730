//! Layer specifications for the benchmark models.
//!
//! Layers are *descriptions*. One walk interprets them, `crate::walk`'s
//! `forward` and `step`, and three drivers run it: `SecureTrainer` over
//! shares, `baseline::PlainModel` over plaintext, and the shape-only
//! driver behind `ModelSpec::forward_deals` / `step_deals`. So the
//! secure network, the plaintext baseline and the triple schedule are the
//! same network by construction.

use psml_mpc::activation as act;
use psml_tensor::ConvShape;

/// Non-linearity applied after a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// The paper's Eq. (9) piecewise-linear function (bounded; used where
    /// a sigmoid-like curve is needed, e.g. logistic regression).
    Piecewise,
    /// ReLU (used in CNN/MLP).
    Relu,
    /// No activation (linear output layers).
    None,
}

impl Activation {
    /// Scalar forward function.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Piecewise => act::piecewise_activation(x),
            Activation::Relu => act::relu(x),
            Activation::None => x,
        }
    }

    /// Scalar derivative (subgradient at kinks).
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Piecewise => act::piecewise_derivative(x),
            Activation::Relu => act::relu_derivative(x),
            Activation::None => 1.0,
        }
    }

    /// Whether this activation requires the interactive reconstruct step.
    pub fn is_linear(self) -> bool {
        matches!(self, Activation::None)
    }
}

/// One layer of a benchmark model.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerSpec {
    /// Fully connected: `(batch x inputs) x (inputs x outputs)`.
    Dense {
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
        /// Post-GEMM activation.
        activation: Activation,
    },
    /// 2-D convolution via batched im2col (must be the first layer).
    Conv2D {
        /// Spatial problem shape.
        shape: ConvShape,
        /// Post-conv activation.
        activation: Activation,
    },
    /// Elman recurrent cell over `seq_len` steps; input features are split
    /// evenly across steps. Output is the final hidden state.
    Rnn {
        /// Features per time step.
        step_inputs: usize,
        /// Hidden-state width.
        hidden: usize,
        /// Number of unrolled steps.
        seq_len: usize,
        /// Hidden-state activation.
        activation: Activation,
    },
    /// Non-overlapping average pooling over a `grid_h x grid_w` spatial
    /// grid with `channels` interleaved channels (the layout
    /// `conv_to_rows` produces: index `(y*grid_w + x)*channels + c`).
    ///
    /// Average pooling is *linear*, so it runs entirely on local shares:
    /// a share-respecting window sum followed by a public `1/window^2`
    /// scale — no triples, no communication (an extension beyond the
    /// paper's CNN, which pools nothing).
    AvgPool2D {
        /// Interleaved channels (e.g. conv filters).
        channels: usize,
        /// Input grid height; must be divisible by `window`.
        grid_h: usize,
        /// Input grid width; must be divisible by `window`.
        grid_w: usize,
        /// Square pooling window edge.
        window: usize,
    },
}

impl LayerSpec {
    /// Features this layer consumes per sample.
    pub fn input_features(&self) -> usize {
        match self {
            LayerSpec::Dense { inputs, .. } => *inputs,
            LayerSpec::Conv2D { shape, .. } => shape.channels * shape.height * shape.width,
            LayerSpec::Rnn {
                step_inputs,
                seq_len,
                ..
            } => step_inputs * seq_len,
            LayerSpec::AvgPool2D {
                channels,
                grid_h,
                grid_w,
                ..
            } => channels * grid_h * grid_w,
        }
    }

    /// Features this layer produces per sample.
    pub fn output_features(&self) -> usize {
        match self {
            LayerSpec::Dense { outputs, .. } => *outputs,
            LayerSpec::Conv2D { shape, .. } => shape.patches() * shape.filters,
            LayerSpec::Rnn { hidden, .. } => *hidden,
            LayerSpec::AvgPool2D {
                channels,
                grid_h,
                grid_w,
                window,
            } => channels * (grid_h / window) * (grid_w / window),
        }
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        match self {
            LayerSpec::Dense { activation, .. }
            | LayerSpec::Conv2D { activation, .. }
            | LayerSpec::Rnn { activation, .. } => *activation,
            LayerSpec::AvgPool2D { .. } => Activation::None,
        }
    }

    /// Shapes of this layer's weight matrices.
    pub fn weight_shapes(&self) -> Vec<(usize, usize)> {
        match self {
            LayerSpec::Dense {
                inputs, outputs, ..
            } => vec![(*inputs, *outputs)],
            LayerSpec::Conv2D { shape, .. } => vec![(shape.patch_len(), shape.filters)],
            LayerSpec::Rnn {
                step_inputs,
                hidden,
                ..
            } => vec![(*step_inputs, *hidden), (*hidden, *hidden)],
            LayerSpec::AvgPool2D { .. } => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_functions_dispatch() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Piecewise.apply(0.0), 0.5);
        assert_eq!(Activation::None.apply(-7.5), -7.5);
        assert_eq!(Activation::None.derivative(123.0), 1.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
        assert!(Activation::None.is_linear());
        assert!(!Activation::Relu.is_linear());
    }

    #[test]
    fn dense_feature_arithmetic() {
        let l = LayerSpec::Dense {
            inputs: 784,
            outputs: 128,
            activation: Activation::Relu,
        };
        assert_eq!(l.input_features(), 784);
        assert_eq!(l.output_features(), 128);
        assert_eq!(l.weight_shapes(), vec![(784, 128)]);
    }

    #[test]
    fn conv_feature_arithmetic() {
        let shape = ConvShape {
            channels: 1,
            height: 28,
            width: 28,
            kernel: 5,
            filters: 8,
        };
        let l = LayerSpec::Conv2D {
            shape,
            activation: Activation::Relu,
        };
        assert_eq!(l.input_features(), 784);
        assert_eq!(l.output_features(), 24 * 24 * 8);
        assert_eq!(l.weight_shapes(), vec![(25, 8)]);
    }

    #[test]
    fn avgpool_feature_arithmetic() {
        let l = LayerSpec::AvgPool2D {
            channels: 8,
            grid_h: 24,
            grid_w: 24,
            window: 2,
        };
        assert_eq!(l.input_features(), 8 * 24 * 24);
        assert_eq!(l.output_features(), 8 * 12 * 12);
        assert!(l.weight_shapes().is_empty());
        assert!(l.activation().is_linear());
    }

    #[test]
    fn rnn_feature_arithmetic() {
        let l = LayerSpec::Rnn {
            step_inputs: 16,
            hidden: 32,
            seq_len: 4,
            activation: Activation::Piecewise,
        };
        assert_eq!(l.input_features(), 64);
        assert_eq!(l.output_features(), 32);
        assert_eq!(l.weight_shapes(), vec![(16, 32), (32, 32)]);
    }
}
