//! Non-linear activations (paper Eq. (9)).
//!
//! SecureML-style 2PC cannot evaluate smooth non-linearities directly, so
//! the paper replaces them with the piecewise-linear function
//!
//! ```text
//! f(x) = 0        for x < -1/2
//!        x + 1/2  for -1/2 <= x <= 1/2
//!        1        for x > 1/2
//! ```
//!
//! used as the default (it has an upper bound, unlike ReLU, so it also
//! serves logistic regression); ReLU remains available for CNN/MLP.
//!
//! **Security note (faithful to the original implementation):** like the
//! authors' open-source code, the framework evaluates activations on values
//! the two servers jointly rebuild and re-share. The activation itself is
//! local arithmetic once the pre-activation is known; the leakage profile
//! matches the reference system, not an idealized garbled-circuit variant.

/// Eq. (9) on a scalar.
#[inline]
pub fn piecewise_activation(x: f64) -> f64 {
    if x < -0.5 {
        0.0
    } else if x > 0.5 {
        1.0
    } else {
        x + 0.5
    }
}

/// Derivative of Eq. (9): 1 inside the linear band, 0 outside.
#[inline]
pub fn piecewise_derivative(x: f64) -> f64 {
    if (-0.5..=0.5).contains(&x) {
        1.0
    } else {
        0.0
    }
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// Subgradient of ReLU (0 at the kink).
#[inline]
pub fn relu_derivative(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::PlainMatrix;

    #[test]
    fn piecewise_matches_definition() {
        assert_eq!(piecewise_activation(-10.0), 0.0);
        assert_eq!(piecewise_activation(-0.5), 0.0);
        assert_eq!(piecewise_activation(0.0), 0.5);
        assert_eq!(piecewise_activation(0.25), 0.75);
        assert_eq!(piecewise_activation(0.5), 1.0);
        assert_eq!(piecewise_activation(7.0), 1.0);
    }

    #[test]
    fn piecewise_is_monotone_and_bounded() {
        let mut prev = -1.0;
        let mut x = -3.0;
        while x <= 3.0 {
            let y = piecewise_activation(x);
            assert!((0.0..=1.0).contains(&y));
            assert!(y >= prev);
            prev = y;
            x += 0.01;
        }
    }

    #[test]
    fn piecewise_approximates_sigmoid_center() {
        // At the center the function agrees with the logistic sigmoid's
        // value and slope (0.5 and ~1 vs sigmoid's 0.25 scaled) — the
        // property SecureML relies on for logistic regression.
        assert_eq!(piecewise_activation(0.0), 0.5);
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        for &x in &[-0.4, -0.2, 0.0, 0.2, 0.4] {
            assert!((piecewise_activation(x) - sigmoid(4.0 * x)).abs() < 0.1);
        }
    }

    #[test]
    fn derivative_is_indicator_of_linear_band() {
        assert_eq!(piecewise_derivative(-0.6), 0.0);
        assert_eq!(piecewise_derivative(0.0), 1.0);
        assert_eq!(piecewise_derivative(0.6), 0.0);
        assert_eq!(piecewise_derivative(0.5), 1.0);
    }

    #[test]
    fn relu_basics() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.5), 3.5);
        assert_eq!(relu_derivative(-1.0), 0.0);
        assert_eq!(relu_derivative(2.0), 1.0);
    }

    #[test]
    fn relu_output_sparsity_motivates_compression() {
        // The paper's Sec. 4.4 argument: post-ReLU matrices contain many
        // zeros. Check a symmetric input goes ~half zero.
        let m = PlainMatrix::from_fn(20, 20, |r, c| ((r * 20 + c) as f64) * 0.01 - 2.0);
        let rl = m.map(relu);
        assert!(rl.zero_fraction() > 0.4);
    }
}
