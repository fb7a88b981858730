//! 2-D convolution: direct sliding-window and im2col + GEMM.
//!
//! The paper's CNN workload lowers convolution onto the same triplet
//! multiplication as everything else. We provide the standard *im2col*
//! lowering — unroll each receptive field into a row, so that the
//! convolution of `channels x H x W` input with `filters` `KxK` kernels
//! becomes one `(out_h*out_w) x (channels*K*K)` by `(channels*K*K) x
//! filters` GEMM — plus a direct reference implementation used as oracle.
//! Valid padding, unit stride (the paper's 5x5-kernel CNN).

use crate::gemm::gemm_auto;
use crate::matrix::Matrix;
use crate::num::Num;

/// Shape of a convolution problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel edge.
    pub kernel: usize,
    /// Number of output filters.
    pub filters: usize,
}

impl ConvShape {
    /// Output height for valid padding, stride 1.
    pub fn out_h(&self) -> usize {
        self.height + 1 - self.kernel
    }

    /// Output width for valid padding, stride 1.
    pub fn out_w(&self) -> usize {
        self.width + 1 - self.kernel
    }

    /// Rows of the im2col matrix (= output pixels).
    pub fn patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the im2col matrix (= receptive field size).
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Validates that the kernel fits in the input.
    pub fn validate(&self) {
        assert!(
            self.kernel >= 1 && self.kernel <= self.height && self.kernel <= self.width,
            "kernel {}x{} does not fit input {}x{}",
            self.kernel,
            self.kernel,
            self.height,
            self.width
        );
        assert!(self.channels >= 1 && self.filters >= 1, "degenerate conv");
    }
}

/// Unrolls `input` (a `channels x (H*W)` matrix, one channel per row) into
/// the im2col patch matrix of shape `patches x patch_len`.
pub fn im2col<T: Num>(input: &Matrix<T>, shape: &ConvShape) -> Matrix<T> {
    shape.validate();
    assert_eq!(
        input.shape(),
        (shape.channels, shape.height * shape.width),
        "input shape mismatch"
    );
    let mut out = Matrix::zeros(shape.patches(), shape.patch_len());
    im2col_rows(input.as_slice(), shape, out.as_mut_slice());
    out
}

/// [`im2col`] on raw row-major storage: writes the patch rows of one
/// sample (`input`, its `channels x (H*W)` elements) into `out`, which
/// holds exactly `patches x patch_len` elements — one sample's block of a
/// batched patch matrix, say.
///
/// # Panics
/// If the kernel does not fit, or either slice has the wrong length.
pub fn im2col_rows<T: Num>(input: &[T], shape: &ConvShape, out: &mut [T]) {
    shape.validate();
    let (plane, k) = (shape.height * shape.width, shape.kernel);
    assert_eq!(input.len(), shape.channels * plane, "input length mismatch");
    assert_eq!(
        out.len(),
        shape.patches() * shape.patch_len(),
        "output length mismatch"
    );
    let ow = shape.out_w();
    for (patch_row, dst) in out.chunks_exact_mut(shape.patch_len()).enumerate() {
        let (oy, ox) = (patch_row / ow, patch_row % ow);
        for (ch, field) in dst.chunks_exact_mut(k * k).enumerate() {
            for (ky, dst) in field.chunks_exact_mut(k).enumerate() {
                let src = ch * plane + (oy + ky) * shape.width + ox;
                dst.copy_from_slice(&input[src..src + k]);
            }
        }
    }
}

/// Convolution via im2col + GEMM. `kernels` has shape
/// `patch_len x filters` (each column is one flattened filter). Returns a
/// `patches x filters` matrix (one output pixel per row).
pub fn conv2d_im2col<T: Num>(
    input: &Matrix<T>,
    kernels: &Matrix<T>,
    shape: &ConvShape,
) -> Matrix<T> {
    assert_eq!(
        kernels.shape(),
        (shape.patch_len(), shape.filters),
        "kernel shape mismatch"
    );
    let patches = im2col(input, shape);
    // The packed production dispatcher: conv-sized problems (patches x
    // patch_len x filters) routinely clear the packing threshold, where
    // the register-tiled kernel wins (see `cargo bench --bench gemm`).
    gemm_auto(&patches, kernels)
}

/// Direct sliding-window convolution (test oracle).
pub fn conv2d_direct<T: Num>(
    input: &Matrix<T>,
    kernels: &Matrix<T>,
    shape: &ConvShape,
) -> Matrix<T> {
    shape.validate();
    assert_eq!(
        kernels.shape(),
        (shape.patch_len(), shape.filters),
        "kernel shape mismatch"
    );
    let (oh, ow, k) = (shape.out_h(), shape.out_w(), shape.kernel);
    let mut out = Matrix::zeros(shape.patches(), shape.filters);
    for oy in 0..oh {
        for ox in 0..ow {
            let patch_row = oy * ow + ox;
            for f in 0..shape.filters {
                let mut acc = T::zero();
                let mut idx = 0;
                for ch in 0..shape.channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = input[(ch, (oy + ky) * shape.width + (ox + kx))];
                            acc = acc.add(v.mul(kernels[(idx, f)]));
                            idx += 1;
                        }
                    }
                }
                out[(patch_row, f)] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape {
            channels: 2,
            height: 7,
            width: 6,
            kernel: 3,
            filters: 4,
        }
    }

    fn input(s: &ConvShape) -> Matrix<f64> {
        Matrix::from_fn(s.channels, s.height * s.width, |r, c| {
            ((r * 131 + c * 7) % 23) as f64 - 11.0
        })
    }

    fn kernels(s: &ConvShape) -> Matrix<f64> {
        Matrix::from_fn(s.patch_len(), s.filters, |r, c| {
            ((r * 17 + c * 29) % 13) as f64 - 6.0
        })
    }

    #[test]
    fn shape_arithmetic() {
        let s = shape();
        assert_eq!(s.out_h(), 5);
        assert_eq!(s.out_w(), 4);
        assert_eq!(s.patches(), 20);
        assert_eq!(s.patch_len(), 18);
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        let s = ConvShape {
            channels: 1,
            height: 3,
            width: 3,
            kernel: 2,
            filters: 1,
        };
        let inp = Matrix::from_vec(1, 9, (0..9).map(|x| x as f64).collect());
        let patches = im2col(&inp, &s);
        assert_eq!(patches.shape(), (4, 4));
        // Top-left patch: [0 1; 3 4] flattened row-major.
        assert_eq!(patches.row(0), &[0.0, 1.0, 3.0, 4.0]);
        // Bottom-right patch: [4 5; 7 8].
        assert_eq!(patches.row(3), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_rows_fill_a_block_of_a_larger_buffer() {
        let s = shape();
        let inp = input(&s);
        let block = s.patches() * s.patch_len();
        let mut out = vec![-1.0f64; 3 * block];
        im2col_rows(inp.as_slice(), &s, &mut out[block..2 * block]);
        assert_eq!(&out[block..2 * block], im2col(&inp, &s).as_slice());
        let outside = out[..block].iter().chain(&out[2 * block..]);
        assert!(outside.copied().all(|v| v == -1.0));
    }

    #[test]
    fn im2col_gemm_matches_direct() {
        let s = shape();
        let inp = input(&s);
        let ker = kernels(&s);
        let a = conv2d_direct(&inp, &ker, &s);
        let b = conv2d_im2col(&inp, &ker, &s);
        assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn multi_channel_contributions_sum() {
        // With an all-ones 1x1 kernel over 2 channels, output = ch0 + ch1.
        let s = ConvShape {
            channels: 2,
            height: 2,
            width: 2,
            kernel: 1,
            filters: 1,
        };
        let inp = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let ker = Matrix::from_vec(2, 1, vec![1.0f64, 1.0]);
        let out = conv2d_im2col(&inp, &ker, &s);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn kernel_equal_to_input_gives_single_pixel() {
        let s = ConvShape {
            channels: 1,
            height: 4,
            width: 4,
            kernel: 4,
            filters: 2,
        };
        let inp = input(&s);
        let ker = kernels(&s);
        let out = conv2d_im2col(&inp, &ker, &s);
        assert_eq!(out.shape(), (1, 2));
        let oracle = conv2d_direct(&inp, &ker, &s);
        assert!(out.max_abs_diff(&oracle) < 1e-4);
    }

    #[test]
    fn works_in_ring_domain() {
        let s = ConvShape {
            channels: 1,
            height: 5,
            width: 5,
            kernel: 3,
            filters: 2,
        };
        let inp = Matrix::from_fn(1, 25, |_, c| (c as u64).wrapping_mul(0x1234_5678_9ABC_DEF1));
        let ker = Matrix::from_fn(9, 2, |r, c| ((r * 2 + c) as u64).wrapping_mul(7));
        assert_eq!(conv2d_direct(&inp, &ker, &s), conv2d_im2col(&inp, &ker, &s));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        let s = ConvShape {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 3,
            filters: 1,
        };
        let inp = Matrix::<f64>::zeros(1, 4);
        let _ = im2col(&inp, &s);
    }
}
