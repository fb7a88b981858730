#![forbid(unsafe_code)]
//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on MNIST, VGGFace2, NIST fingerprints, CIFAR-10 and
//! a SYNTHETIC matrix workload. Those downloads are unavailable offline, and
//! nothing in the evaluation depends on the *semantic* content of the
//! images — only on their **shapes** (which set every matrix dimension),
//! their **value ranges**, their **sparsity** (which drives the compressed
//! transmission results), and the existence of **learnable structure**
//! (labels follow a hidden linear model, so training actually converges).
//!
//! Each generator is deterministic in `(dataset, seed, sample index)`.
//!
//! | Stand-in    | Shape       | Samples | Character                        |
//! |-------------|-------------|---------|----------------------------------|
//! | `Mnist`     | 1x28x28     | 60 000  | sparse strokes (~80 % zeros)     |
//! | `VggFace2`  | 1x200x200   | 40 000  | dense smooth gradients           |
//! | `Nist`      | 1x512x512   | 4 000   | ridge (sinusoidal) patterns      |
//! | `Cifar10`   | 3x32x32     | 50 000  | dense correlated color noise     |
//! | `Synthetic` | 32x64 flat  | 640 000 | uniform random matrices          |

use psml_parallel::Mt19937;
use psml_tensor::Matrix;

/// Which workload to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 28x28 handwritten-digit stand-in (sparse strokes).
    Mnist,
    /// 200x200 face-crop stand-in (dense, smooth).
    VggFace2,
    /// 512x512 fingerprint stand-in (ridge patterns).
    Nist,
    /// 3-channel 32x32 natural-image stand-in.
    Cifar10,
    /// The paper's SYNTHETIC workload: 32x64 random matrices.
    Synthetic,
}

/// Static description of a dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Display name (paper's name).
    pub name: &'static str,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes for classification tasks.
    pub classes: usize,
    /// Nominal training-set size.
    pub train_samples: usize,
}

impl DatasetSpec {
    /// Flattened feature count (`channels * height * width`).
    pub fn features(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl DatasetKind {
    /// Every dataset in the paper's evaluation order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::VggFace2,
        DatasetKind::Nist,
        DatasetKind::Synthetic,
        DatasetKind::Mnist,
        DatasetKind::Cifar10,
    ];

    /// The lower-case spelling used on command lines and in session
    /// `begin` frames.
    pub fn token(self) -> &'static str {
        match self {
            DatasetKind::Mnist => "mnist",
            DatasetKind::VggFace2 => "vggface2",
            DatasetKind::Nist => "nist",
            DatasetKind::Cifar10 => "cifar10",
            DatasetKind::Synthetic => "synthetic",
        }
    }

    /// Inverse of [`DatasetKind::token`] (exact match).
    pub fn from_token(s: &str) -> Option<DatasetKind> {
        Self::ALL.into_iter().find(|k| k.token() == s)
    }

    /// The dataset's static description.
    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetKind::Mnist => DatasetSpec {
                name: "MNIST",
                channels: 1,
                height: 28,
                width: 28,
                classes: 10,
                train_samples: 60_000,
            },
            DatasetKind::VggFace2 => DatasetSpec {
                name: "VGGFace2",
                channels: 1,
                height: 200,
                width: 200,
                classes: 10,
                train_samples: 40_000,
            },
            DatasetKind::Nist => DatasetSpec {
                name: "NIST",
                channels: 1,
                height: 512,
                width: 512,
                classes: 10,
                train_samples: 4_000,
            },
            DatasetKind::Cifar10 => DatasetSpec {
                name: "CIFAR-10",
                channels: 3,
                height: 32,
                width: 32,
                classes: 10,
                train_samples: 50_000,
            },
            DatasetKind::Synthetic => DatasetSpec {
                name: "SYNTHETIC",
                channels: 1,
                height: 32,
                width: 64,
                classes: 10,
                train_samples: 640_000,
            },
        }
    }

    /// Generates sample `idx` as a `channels x (height*width)` matrix with
    /// values in `[0, 1]`.
    pub fn sample_image(self, idx: usize, seed: u32) -> Matrix<f64> {
        let spec = self.spec();
        let mut rng = sample_rng(self, idx, seed);
        match self {
            DatasetKind::Mnist => strokes(&spec, &mut rng),
            DatasetKind::VggFace2 => smooth_gradients(&spec, &mut rng),
            DatasetKind::Nist => ridges(&spec, &mut rng),
            DatasetKind::Cifar10 => correlated_color(&spec, &mut rng),
            DatasetKind::Synthetic => uniform(&spec, &mut rng),
        }
    }

    /// The hidden class of sample `idx` under the dataset's latent linear
    /// model — labels are a deterministic function of the image content, so
    /// models can actually fit them.
    pub fn sample_label(self, idx: usize, seed: u32) -> usize {
        let spec = self.spec();
        let img = self.sample_image(idx, seed);
        latent_class(&img, spec.classes, seed)
    }
}

/// A mini-batch: flattened features (`batch x features`), one-hot labels
/// (`batch x classes`) and scalar regression targets (`batch x 1`,
/// in `[0, 1]`, derived from the label).
#[derive(Clone, Debug)]
pub struct Batch {
    /// Flattened inputs, one sample per row.
    pub x: Matrix<f64>,
    /// One-hot class labels.
    pub y_onehot: Matrix<f64>,
    /// Scalar targets for regression tasks.
    pub y_scalar: Matrix<f64>,
}

/// Generates batch `batch_idx` of `batch_size` samples.
pub fn batch(kind: DatasetKind, batch_size: usize, batch_idx: usize, seed: u32) -> Batch {
    let spec = kind.spec();
    let features = spec.features();
    let mut x = Matrix::zeros(batch_size, features);
    let mut y_onehot = Matrix::zeros(batch_size, spec.classes);
    let mut y_scalar = Matrix::zeros(batch_size, 1);
    for b in 0..batch_size {
        let idx = batch_idx * batch_size + b;
        let img = kind.sample_image(idx, seed);
        x.row_mut(b).copy_from_slice(img.as_slice());
        let label = latent_class(&img, spec.classes, seed);
        y_onehot[(b, label)] = 1.0;
        y_scalar[(b, 0)] = (label as f64 + 0.5) / spec.classes as f64;
    }
    Batch {
        x,
        y_onehot,
        y_scalar,
    }
}

fn sample_rng(kind: DatasetKind, idx: usize, seed: u32) -> Mt19937 {
    let k = match kind {
        DatasetKind::Mnist => 1u32,
        DatasetKind::VggFace2 => 2,
        DatasetKind::Nist => 3,
        DatasetKind::Cifar10 => 4,
        DatasetKind::Synthetic => 5,
    };
    Mt19937::new(
        seed.wrapping_mul(0x9E37_79B9)
            .wrapping_add(k.wrapping_mul(0x85EB_CA6B))
            .wrapping_add(idx as u32),
    )
}

/// Class = argmax over `classes` fixed random hyperplanes (seeded, shared
/// across samples), giving a linearly separable labeling.
fn latent_class(img: &Matrix<f64>, classes: usize, seed: u32) -> usize {
    let features = img.len();
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for c in 0..classes {
        let mut w = Mt19937::new(seed ^ (0xC1A5_5000 + c as u32));
        let mut score = 0.0;
        // Project onto a sparse random hyperplane (every 7th feature) so
        // huge images stay cheap to label.
        let mut i = 0;
        while i < features {
            score += (w.next_f64() - 0.5) * img.as_slice()[i];
            i += 7;
        }
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    best
}

/// MNIST-like: black background, a handful of random strokes.
fn strokes(spec: &DatasetSpec, rng: &mut Mt19937) -> Matrix<f64> {
    let (h, w) = (spec.height, spec.width);
    let mut img = Matrix::zeros(1, h * w);
    let strokes = 3 + (rng.next_u32() % 3) as usize;
    for _ in 0..strokes {
        let mut y = (rng.next_u32() as usize) % h;
        let mut x = (rng.next_u32() as usize) % w;
        let len = 8 + (rng.next_u32() as usize) % 12;
        for _ in 0..len {
            img[(0, y * w + x)] = 0.5 + 0.5 * rng.next_f64();
            // Thicken the stroke one pixel to the right.
            if x + 1 < w {
                img[(0, y * w + x + 1)] = 0.3 + 0.4 * rng.next_f64();
            }
            match rng.next_u32() % 4 {
                0 if y + 1 < h => y += 1,
                1 if y > 0 => y -= 1,
                2 if x + 1 < w => x += 1,
                _ if x > 0 => x -= 1,
                _ => {}
            }
        }
    }
    img
}

/// Face-like: sum of a few smooth 2-D gradients (dense, no zeros).
fn smooth_gradients(spec: &DatasetSpec, rng: &mut Mt19937) -> Matrix<f64> {
    let (h, w) = (spec.height, spec.width);
    let cx = rng.next_f64() * h as f64;
    let cy = rng.next_f64() * w as f64;
    let ax = 0.5 + rng.next_f64();
    let ay = 0.5 + rng.next_f64();
    let scale = 1.0 / (h * h + w * w) as f64;
    Matrix::from_fn(1, h * w, |_, i| {
        let (y, x) = ((i / w) as f64, (i % w) as f64);
        let d = ax * (y - cx) * (y - cx) + ay * (x - cy) * (x - cy);
        0.15 + 0.8 * (-d * scale * 8.0).exp()
    })
}

/// Fingerprint-like: sinusoidal ridges with random orientation and phase.
fn ridges(spec: &DatasetSpec, rng: &mut Mt19937) -> Matrix<f64> {
    let (h, w) = (spec.height, spec.width);
    let theta = rng.next_f64() * std::f64::consts::PI;
    let freq = 0.15 + rng.next_f64() * 0.25;
    let phase = rng.next_f64() * std::f64::consts::TAU;
    let (s, c) = theta.sin_cos();
    Matrix::from_fn(1, h * w, |_, i| {
        let (y, x) = ((i / w) as f64, (i % w) as f64);
        let t = (x * c + y * s) * freq + phase;
        0.5 + 0.5 * t.sin()
    })
}

/// CIFAR-like: per-channel value noise with strong horizontal correlation.
fn correlated_color(spec: &DatasetSpec, rng: &mut Mt19937) -> Matrix<f64> {
    let (h, w) = (spec.height, spec.width);
    let mut img = Matrix::zeros(spec.channels, h * w);
    for ch in 0..spec.channels {
        let mut v = rng.next_f64();
        for i in 0..h * w {
            // AR(1) smoothing keeps neighboring pixels correlated.
            v = 0.85 * v + 0.15 * rng.next_f64();
            img[(ch, i)] = v;
        }
    }
    img
}

/// SYNTHETIC: uniform random in `[0, 1]`.
fn uniform(spec: &DatasetSpec, rng: &mut Mt19937) -> Matrix<f64> {
    Matrix::from_fn(spec.channels, spec.height * spec.width, |_, _| rng.next_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_tokens_roundtrip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(DatasetKind::from_token("imagenet"), None);
        assert_eq!(DatasetKind::from_token("cifar-10"), None, "the alias is the CLI's business");
    }

    #[test]
    fn specs_match_paper_shapes() {
        assert_eq!(DatasetKind::Mnist.spec().features(), 784);
        assert_eq!(DatasetKind::VggFace2.spec().features(), 40_000);
        assert_eq!(DatasetKind::Nist.spec().features(), 262_144);
        assert_eq!(DatasetKind::Cifar10.spec().features(), 3_072);
        assert_eq!(DatasetKind::Synthetic.spec().features(), 2_048);
        assert_eq!(DatasetKind::Mnist.spec().train_samples, 60_000);
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Synthetic] {
            let a = kind.sample_image(17, 42);
            let b = kind.sample_image(17, 42);
            assert_eq!(a, b, "{kind:?} not deterministic");
            let c = kind.sample_image(18, 42);
            assert_ne!(a, c, "{kind:?} ignores the index");
            let d = kind.sample_image(17, 43);
            assert_ne!(a, d, "{kind:?} ignores the seed");
        }
    }

    #[test]
    fn values_are_normalized() {
        for kind in DatasetKind::ALL {
            let img = kind.sample_image(3, 7);
            assert!(
                img.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{kind:?} out of range"
            );
            assert_eq!(
                img.shape(),
                (kind.spec().channels, kind.spec().height * kind.spec().width)
            );
        }
    }

    #[test]
    fn mnist_is_sparse_faces_are_dense() {
        let mnist = DatasetKind::Mnist.sample_image(0, 1);
        assert!(
            mnist.zero_fraction() > 0.6,
            "MNIST stand-in must be mostly background, got {}",
            mnist.zero_fraction()
        );
        let face = DatasetKind::VggFace2.sample_image(0, 1);
        assert!(face.zero_fraction() < 0.01, "faces must be dense");
        let fp = DatasetKind::Nist.sample_image(0, 1);
        assert!(fp.zero_fraction() < 0.01, "ridges must be dense");
    }

    #[test]
    fn labels_cover_multiple_classes() {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..60 {
            seen.insert(DatasetKind::Mnist.sample_label(idx, 5));
        }
        assert!(seen.len() >= 3, "labels degenerate: {seen:?}");
        assert!(seen.iter().all(|&c| c < 10));
    }

    #[test]
    fn batch_assembles_features_and_labels() {
        let b = batch(DatasetKind::Cifar10, 8, 2, 9);
        assert_eq!(b.x.shape(), (8, 3_072));
        assert_eq!(b.y_onehot.shape(), (8, 10));
        assert_eq!(b.y_scalar.shape(), (8, 1));
        // Each row is exactly one-hot.
        for r in 0..8 {
            let ones = b.y_onehot.row(r).iter().filter(|&&v| v == 1.0).count();
            let zeros = b.y_onehot.row(r).iter().filter(|&&v| v == 0.0).count();
            assert_eq!((ones, zeros), (1, 9));
            assert!((0.0..=1.0).contains(&b.y_scalar[(r, 0)]));
        }
    }

    #[test]
    fn batches_tile_the_dataset() {
        let b0 = batch(DatasetKind::Synthetic, 4, 0, 11);
        let b1 = batch(DatasetKind::Synthetic, 4, 1, 11);
        assert_ne!(b0.x, b1.x);
        // Batch 1 sample 0 == sample index 4.
        let img4 = DatasetKind::Synthetic.sample_image(4, 11);
        assert_eq!(b1.x.row(0), img4.as_slice());
    }

    #[test]
    fn labels_are_learnable_by_linear_model() {
        // Sanity: the latent labeling must be consistent — the same image
        // always maps to the same class (pure function of content).
        for idx in [0, 5, 9] {
            let l1 = DatasetKind::Mnist.sample_label(idx, 3);
            let l2 = DatasetKind::Mnist.sample_label(idx, 3);
            assert_eq!(l1, l2);
        }
    }
}
