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

    /// Decides the wire form for `next` and updates the mirror state.
    pub fn encode(&mut self, next: &Matrix<R>) -> TransmitForm<R> {
        let form = match &self.prev {
            Some(prev) if prev.shape() == next.shape() => {
                let delta = next.sub(prev);
                if delta.zero_fraction() >= self.threshold {
                    let csr = Csr::from_dense(&delta);
                    if csr.wins_over_dense() {
                        TransmitForm::Delta(csr)
                    } else {
                        TransmitForm::Full(next.clone())
                    }
                } else {
                    TransmitForm::Full(next.clone())
                }
            }
            _ => TransmitForm::Full(next.clone()),
        };
        self.prev = Some(next.clone());
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
        let full = match form {
            TransmitForm::Full(m) => m,
            TransmitForm::Delta(csr) => {
                let mut base = self.prev.clone().ok_or(DeltaError::NoBase)?;
                if base.shape() != csr.shape() {
                    return Err(DeltaError::ShapeMismatch);
                }
                csr.add_into(&mut base);
                base
            }
        };
        self.prev = Some(full.clone());
        Ok(full)
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
}
