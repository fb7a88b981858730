//! Delta + CSR compressed transmission (paper Section 4.4).
//!
//! Between training iterations the masked matrices evolve as
//! `E_{j+1} = E_j + dA_j` (Eq. 11), and the delta `dA_j` — a gradient or a
//! post-activation difference — is usually sparse. Each directed stream of
//! matrices therefore keeps a [`DeltaEncoder`] on the sender and a mirrored
//! [`DeltaDecoder`] on the receiver: the sender ships either the full dense
//! matrix or, when the delta clears the 75 %-zeros threshold *and* CSR is
//! actually smaller, just the CSR-compressed delta.

use psml_tensor::sparse::DEFAULT_SPARSITY_THRESHOLD;
use psml_tensor::{Csr, Matrix, Num};

/// What the encoder decided to put on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum TransmitForm<R: Num> {
    /// Ship the full dense matrix (first send, or delta not sparse enough).
    Full(Matrix<R>),
    /// Ship only the CSR-compressed delta against the previous value.
    Delta(Csr<R>),
}

impl<R: Num> TransmitForm<R> {
    /// Whether the compressed path was taken.
    pub fn is_delta(&self) -> bool {
        matches!(self, TransmitForm::Delta(_))
    }
}

/// `next.sub(prev).zero_fraction() >= threshold`, decided in one pass over
/// the two operands without materialising the difference, and given up as
/// soon as the non-zeros seen so far put the threshold out of reach. The
/// comparison is the one `zero_fraction` makes (same `f64` quotient), so
/// the decision is the same on every input.
fn delta_is_sparse<R: Num>(next: &Matrix<R>, prev: &Matrix<R>, threshold: f64) -> bool {
    const CHUNK: usize = 1024;
    let len = next.as_slice().len();
    let mut nonzeros = 0usize;
    for (n, p) in next.as_slice().chunks(CHUNK).zip(prev.as_slice().chunks(CHUNK)) {
        nonzeros += n.iter().zip(p).filter(|&(&a, &b)| !a.sub(b).is_zero()).count();
        // Every element still to come can only add non-zeros.
        if ((len - nonzeros) as f64 / len as f64) < threshold {
            return false;
        }
    }
    true
}

/// Makes `slot` a copy of `m`, reusing its buffer when the shape is
/// unchanged (the steady state of a stream).
fn mirror<R: Num>(slot: &mut Option<Matrix<R>>, m: &Matrix<R>) {
    match slot {
        Some(prev) if prev.shape() == m.shape() => {
            prev.as_mut_slice().copy_from_slice(m.as_slice());
        }
        _ => *slot = Some(m.clone()),
    }
}

/// Sender-side state for one matrix stream.
#[derive(Clone, Debug)]
pub struct DeltaEncoder<R: Num> {
    prev: Option<Matrix<R>>,
    threshold: f64,
}

impl<R: Num> DeltaEncoder<R> {
    /// Encoder with the paper's default 0.75 zero-fraction threshold.
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_SPARSITY_THRESHOLD)
    }

    /// Encoder with an explicit threshold in `[0, 1]`.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold out of range");
        DeltaEncoder {
            prev: None,
            threshold,
        }
    }

    /// Decides the wire form for `next` and updates the mirror state. A
    /// full send costs one copy of `next` (the form); the delta and its
    /// CSR are built only when the delta is sparse enough to be shipped.
    pub fn encode(&mut self, next: &Matrix<R>) -> TransmitForm<R> {
        let form = match &self.prev {
            Some(prev)
                if prev.shape() == next.shape() && delta_is_sparse(next, prev, self.threshold) =>
            {
                let csr = Csr::from_dense(&next.sub(prev));
                if csr.wins_over_dense() {
                    TransmitForm::Delta(csr)
                } else {
                    TransmitForm::Full(next.clone())
                }
            }
            _ => TransmitForm::Full(next.clone()),
        };
        mirror(&mut self.prev, next);
        form
    }

    /// Drops the mirror state (e.g. at an epoch boundary where the peer
    /// resets too).
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

impl<R: Num> Default for DeltaEncoder<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// Receiver-side mirror for one matrix stream.
#[derive(Clone, Debug)]
pub struct DeltaDecoder<R: Num> {
    prev: Option<Matrix<R>>,
}

impl<R: Num> Default for DeltaDecoder<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// Errors raised when a delta cannot be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A delta arrived but no previous full matrix exists.
    NoBase,
    /// The delta's shape does not match the mirrored base.
    ShapeMismatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NoBase => write!(f, "delta received before any full matrix"),
            DeltaError::ShapeMismatch => write!(f, "delta shape mismatches mirrored base"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl<R: Num> DeltaDecoder<R> {
    /// Fresh decoder with no mirror state.
    pub fn new() -> Self {
        DeltaDecoder { prev: None }
    }

    /// Applies a received form, returning the reconstructed full matrix.
    pub fn decode(&mut self, form: TransmitForm<R>) -> Result<Matrix<R>, DeltaError> {
        match form {
            TransmitForm::Full(m) => {
                mirror(&mut self.prev, &m);
                Ok(m)
            }
            TransmitForm::Delta(csr) => {
                let base = self.prev.as_mut().ok_or(DeltaError::NoBase)?;
                if base.shape() != csr.shape() {
                    return Err(DeltaError::ShapeMismatch);
                }
                csr.add_into(base);
                Ok(base.clone())
            }
        }
    }

    /// Drops the mirror state.
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix<f32> {
        Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32)
    }

    #[test]
    fn first_send_is_always_full() {
        let mut enc = DeltaEncoder::new();
        let form = enc.encode(&base());
        assert!(!form.is_delta());
    }

    #[test]
    fn sparse_update_ships_delta_and_decodes() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let m0 = base();
        assert_eq!(dec.decode(enc.encode(&m0)).unwrap(), m0);

        let mut m1 = m0.clone();
        m1[(2, 3)] += 5.0; // 1/64 changed: 98 % zeros in the delta
        let form = enc.encode(&m1);
        assert!(form.is_delta());
        assert_eq!(dec.decode(form).unwrap(), m1);
    }

    #[test]
    fn dense_update_ships_full() {
        let mut enc = DeltaEncoder::new();
        let m0 = base();
        enc.encode(&m0);
        let m1 = m0.map(|x| x + 1.0); // every element changed
        let form = enc.encode(&m1);
        assert!(!form.is_delta());
    }

    #[test]
    fn threshold_controls_decision() {
        // Delta with exactly 75 % zeros: compressed at the default 0.75
        // threshold, dense at a stricter 0.8.
        let m0 = base();
        let m1 = Matrix::from_fn(8, 8, |r, c| m0[(r, c)] + if c < 2 { 1.0 } else { 0.0 });
        let mut strict = DeltaEncoder::with_threshold(0.8);
        strict.encode(&m0);
        assert!(!strict.encode(&m1).is_delta());
        let mut default = DeltaEncoder::new();
        default.encode(&m0);
        assert!(default.encode(&m1).is_delta());
    }

    #[test]
    fn stream_of_updates_stays_consistent() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let mut current = base();
        for step in 0..20 {
            // Sparse drift: one element per step.
            current[(step % 8, (step * 3) % 8)] += step as f32;
            let got = dec.decode(enc.encode(&current)).unwrap();
            assert_eq!(got, current, "diverged at step {step}");
        }
    }

    #[test]
    fn shape_change_forces_full_send() {
        let mut enc = DeltaEncoder::new();
        enc.encode(&base());
        let other = Matrix::<f32>::zeros(4, 4);
        assert!(!enc.encode(&other).is_delta());
    }

    #[test]
    fn delta_without_base_errors() {
        let mut dec = DeltaDecoder::<f32>::new();
        let csr = Csr::from_dense(&Matrix::zeros(2, 2));
        assert_eq!(
            dec.decode(TransmitForm::Delta(csr)).unwrap_err(),
            DeltaError::NoBase
        );
    }

    #[test]
    fn reset_drops_mirror() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let m0 = base();
        dec.decode(enc.encode(&m0)).unwrap();
        enc.reset();
        dec.reset();
        let mut m1 = m0.clone();
        m1[(0, 0)] += 1.0;
        let form = enc.encode(&m1);
        assert!(!form.is_delta(), "post-reset send must be full");
        assert_eq!(dec.decode(form).unwrap(), m1);
    }

    #[test]
    fn never_worse_than_dense_wire_size() {
        let mut enc = DeltaEncoder::new();
        let m0 = base();
        enc.encode(&m0);
        // Tiny matrix where CSR overhead would dominate.
        let mut m1 = m0.clone();
        for c in 0..8 {
            m1[(0, c)] += 1.0;
        }
        let form = enc.encode(&m1);
        let wire = match &form {
            TransmitForm::Full(m) => m.byte_size(),
            TransmitForm::Delta(c) => c.byte_size(),
        };
        assert!(wire <= m1.byte_size());
    }

    use proptest::prelude::*;

    /// `encode` as it was before the one-pass decision: the delta is
    /// materialised and its zero fraction compared with the threshold.
    fn encode_by_materialised_delta(
        prev: &Matrix<u64>,
        next: &Matrix<u64>,
        threshold: f64,
    ) -> TransmitForm<u64> {
        let delta = next.sub(prev);
        if delta.zero_fraction() >= threshold {
            let csr = Csr::from_dense(&delta);
            if csr.wins_over_dense() {
                return TransmitForm::Delta(csr);
            }
        }
        TransmitForm::Full(next.clone())
    }

    proptest! {
        /// The one-pass decision is the materialised-delta decision, with
        /// the delta's zero count just below, at and just above the count
        /// the threshold asks for — on streams short and long enough to
        /// stop early in a later chunk.
        #[test]
        fn one_pass_decision_equals_the_materialised_one(
            (rows, cols) in (1usize..48, 1usize..64),
            threshold in prop::sample::select(vec![0.0, 0.3, 0.5, 0.75, 0.8, 0.999, 1.0]),
            around in 0usize..5,
            seed in any::<u64>(),
        ) {
            let len = rows * cols;
            let wanted = (threshold * len as f64).ceil() as usize;
            let zeros = (wanted + around).saturating_sub(2).min(len);
            let prev = Matrix::from_fn(rows, cols, |r, c| seed.wrapping_mul((r * cols + c) as u64 | 1));
            // `zeros` unchanged elements, as a run from a random offset.
            let mut next = prev.map(|v| v.wrapping_add(1));
            for i in 0..zeros {
                let at = (seed as usize % len + i) % len;
                next.as_mut_slice()[at] = prev.as_slice()[at];
            }
            let delta = next.sub(&prev);
            prop_assert_eq!(
                delta_is_sparse(&next, &prev, threshold),
                delta.zero_fraction() >= threshold
            );

            let mut enc = DeltaEncoder::with_threshold(threshold);
            let mut dec = DeltaDecoder::new();
            prop_assert_eq!(dec.decode(enc.encode(&prev)).unwrap(), prev.clone());
            let form = enc.encode(&next);
            prop_assert_eq!(&form, &encode_by_materialised_delta(&prev, &next, threshold));
            prop_assert_eq!(dec.decode(form).unwrap(), next.clone());
            // Both mirrors now hold `next`: an unchanged resend is an empty delta.
            let form = enc.encode(&next);
            prop_assert_eq!(&form, &encode_by_materialised_delta(&next, &next, threshold));
            prop_assert_eq!(dec.decode(form).unwrap(), next);
        }
    }
}
