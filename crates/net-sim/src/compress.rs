//! Delta + CSR compressed transmission (paper Section 4.4).
//!
//! Between training iterations the masked matrices evolve as
//! `E_{j+1} = E_j + dA_j` (Eq. 11), and the delta `dA_j` — a gradient or a
//! post-activation difference — is usually sparse. Each directed stream of
//! matrices therefore keeps a [`DeltaEncoder`] on the sender and a mirrored
//! [`DeltaDecoder`] on the receiver: the sender ships either the full dense
//! matrix or, when the delta clears the 75 %-zeros threshold *and* CSR is
//! actually smaller, just the CSR-compressed delta.
//!
//! Neither side materialises the delta. An encode first counts the
//! delta's non-zeros in one read-only pass over `(next, mirror)`, per
//! 1 Ki-element chunk, giving up as soon as the threshold is out of
//! reach; whether CSR is smaller follows from that count. Only then is
//! anything written: on a hit, the chunks holding non-zeros are walked
//! again to emit the CSR entries and patch the mirror in place; otherwise
//! `next` is copied twice, into the full form and into the mirror. The
//! decoder lends its mirror as the landed matrix: a full form is moved
//! in, a delta is added in place.

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

/// Elements per count of [`delta_is_sparse`]: the granularity at which
/// the first pass may stop and the second pass may skip.
const CHUNK: usize = 1024;

/// Stage one of an encode: the number of non-zeros of `next - prev` when
/// its zero fraction reaches `threshold`, else `None`. One read-only pass
/// over the two operands, given up as soon as the non-zeros seen so far
/// put the threshold out of reach; the comparison is the one
/// `zero_fraction` makes (same `f64` quotient), so the decision is the
/// same on every input. On success `chunk_nnz[c]` holds the count of
/// chunk `c` of [`CHUNK`] elements.
fn delta_is_sparse<R: Num>(
    next: &Matrix<R>,
    prev: &Matrix<R>,
    threshold: f64,
    chunk_nnz: &mut Vec<u32>,
) -> Option<usize> {
    let len = next.as_slice().len();
    let mut nonzeros = 0usize;
    chunk_nnz.clear();
    for (n, p) in next
        .as_slice()
        .chunks(CHUNK)
        .zip(prev.as_slice().chunks(CHUNK))
    {
        let here = n
            .iter()
            .zip(p)
            .filter(|&(&a, &b)| !R::sub(a, b).is_zero())
            .count();
        nonzeros += here;
        // Every element still to come can only add non-zeros.
        if ((len - nonzeros) as f64 / len as f64) < threshold {
            return None;
        }
        chunk_nnz.push(here as u32);
    }
    Some(nonzeros)
}

/// Stage two of an encode, on a hit: the CSR of `next - prev`, which has
/// `nnz` non-zeros spread as `chunk_nnz` says, with `prev` patched to
/// `next` wherever the delta is non-zero. Chunks without non-zeros are
/// not read again.
///
/// Where the delta is zero, `prev` keeps its element, which equals
/// `next`'s except that a float zero may keep the other sign. No later
/// delta can tell: `x - 0.0` and `x - (-0.0)` are both zero for a zero
/// `x` and both exactly `x` otherwise (a NaN `x` propagates either way).
fn delta_csr<R: Num>(
    next: &Matrix<R>,
    prev: &mut Matrix<R>,
    nnz: usize,
    chunk_nnz: &[u32],
) -> Csr<R> {
    let entries = next
        .as_slice()
        .chunks(CHUNK)
        .zip(prev.as_mut_slice().chunks_mut(CHUNK))
        .zip(chunk_nnz)
        .enumerate()
        .filter(|(_, (_, &here))| here > 0)
        .flat_map(|(c, ((n, p), _))| {
            n.iter().zip(p).enumerate().filter_map(move |(j, (&a, b))| {
                let d = R::sub(a, *b);
                (!d.is_zero()).then(|| {
                    *b = a;
                    (c * CHUNK + j, d)
                })
            })
        });
    Csr::from_row_major_entries(next.rows(), next.cols(), nnz, entries)
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
    /// Per-chunk non-zero counts of the last [`delta_is_sparse`] pass,
    /// kept to reuse the buffer.
    chunk_nnz: Vec<u32>,
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
            chunk_nnz: Vec::new(),
        }
    }

    /// Decides the wire form for `next` and updates the mirror state.
    ///
    /// A delta costs one read of `next` and the mirror, plus a second
    /// read of the chunks holding non-zeros, which also writes `next`'s
    /// changed elements into the mirror. A full send costs the partial
    /// read that ruled the delta out (none on a first send or a shape
    /// change) and two copies of `next`: the form and the mirror.
    pub fn encode(&mut self, next: &Matrix<R>) -> TransmitForm<R> {
        if let Some(prev) = self.prev.as_mut().filter(|p| p.shape() == next.shape()) {
            if let Some(nnz) = delta_is_sparse(next, prev, self.threshold, &mut self.chunk_nnz) {
                if Csr::<R>::would_win(next.rows(), next.cols(), nnz) {
                    return TransmitForm::Delta(delta_csr(next, prev, nnz, &self.chunk_nnz));
                }
            }
        }
        mirror(&mut self.prev, next);
        TransmitForm::Full(next.clone())
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

    /// Applies a received form and lends the reconstructed full matrix,
    /// which is the mirror itself: a full form becomes the mirror, a
    /// delta is added into it. Nothing is copied.
    pub fn decode(&mut self, form: TransmitForm<R>) -> Result<&Matrix<R>, DeltaError> {
        match form {
            TransmitForm::Full(m) => Ok(self.prev.insert(m)),
            TransmitForm::Delta(csr) => {
                let base = self.prev.as_mut().ok_or(DeltaError::NoBase)?;
                if base.shape() != csr.shape() {
                    return Err(DeltaError::ShapeMismatch);
                }
                csr.add_into(base);
                Ok(base)
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
        assert_eq!(dec.decode(enc.encode(&m0)).unwrap(), &m0);

        let mut m1 = m0.clone();
        m1[(2, 3)] += 5.0; // 1/64 changed: 98 % zeros in the delta
        let form = enc.encode(&m1);
        assert!(form.is_delta());
        assert_eq!(dec.decode(form).unwrap(), &m1);
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
            assert_eq!(got, &current, "diverged at step {step}");
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
        assert_eq!(dec.decode(form).unwrap(), &m1);
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

    /// The compressed transmission as it was before the two-stage encode
    /// and the lending decoder, kept as their oracle: the delta is
    /// materialised, its zero fraction compared with the threshold, its
    /// CSR built by `Csr::from_dense`, and both sides keep a full copy of
    /// every matrix that crosses.
    struct Oracle<R: Num> {
        threshold: f64,
        sent: Option<Matrix<R>>,
        landed: Option<Matrix<R>>,
    }

    impl<R: Num> Oracle<R> {
        fn new(threshold: f64) -> Self {
            Oracle {
                threshold,
                sent: None,
                landed: None,
            }
        }

        fn encode(&mut self, next: &Matrix<R>) -> TransmitForm<R> {
            let form = match &self.sent {
                Some(prev) if prev.shape() == next.shape() => {
                    let delta = next.sub(prev);
                    let csr = (delta.zero_fraction() >= self.threshold)
                        .then(|| Csr::from_dense(&delta))
                        .filter(Csr::wins_over_dense);
                    match csr {
                        Some(csr) => TransmitForm::Delta(csr),
                        None => TransmitForm::Full(next.clone()),
                    }
                }
                _ => TransmitForm::Full(next.clone()),
            };
            self.sent = Some(next.clone());
            form
        }

        fn decode(&mut self, form: TransmitForm<R>) -> Result<Matrix<R>, DeltaError> {
            match form {
                TransmitForm::Full(m) => {
                    self.landed = Some(m.clone());
                    Ok(m)
                }
                TransmitForm::Delta(csr) => {
                    let base = self.landed.as_mut().ok_or(DeltaError::NoBase)?;
                    if base.shape() != csr.shape() {
                        return Err(DeltaError::ShapeMismatch);
                    }
                    csr.add_into(base);
                    Ok(base.clone())
                }
            }
        }

        fn reset(&mut self) {
            self.sent = None;
            self.landed = None;
        }
    }

    /// A carrier whose elements compare by their bits (so `NaN`, `-0.0`
    /// and `0.0` are each only equal to themselves), drawn from a palette
    /// of its corner values and raw bit patterns.
    trait Carrier: Num {
        fn bits(self) -> u64;
        fn draw(word: u64) -> Self;
    }

    impl Carrier for u64 {
        fn bits(self) -> u64 {
            self
        }
        fn draw(word: u64) -> u64 {
            [0, 1, 2, u64::MAX, word >> 8][(word % 5) as usize]
        }
    }

    impl Carrier for f32 {
        fn bits(self) -> u64 {
            self.to_bits() as u64
        }
        fn draw(word: u64) -> f32 {
            let palette = [
                0.0,
                -0.0,
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1.0,
                -1.0,
                1e30,
                f32::from_bits(1), // the smallest subnormal
                f32::MAX,
                f32::from_bits((word >> 16) as u32),
            ];
            palette[(word % palette.len() as u64) as usize]
        }
    }

    fn bits_of<R: Carrier>(data: &[R]) -> Vec<u64> {
        data.iter().map(|&v| v.bits()).collect()
    }

    /// Bit-for-bit equality of two matrices.
    fn same_matrix<R: Carrier>(a: &Matrix<R>, b: &Matrix<R>) -> bool {
        a.shape() == b.shape() && bits_of(a.as_slice()) == bits_of(b.as_slice())
    }

    /// Bit-for-bit equality of two forms, CSR arrays included.
    fn same_form<R: Carrier>(a: &TransmitForm<R>, b: &TransmitForm<R>) -> bool {
        match (a, b) {
            (TransmitForm::Full(a), TransmitForm::Full(b)) => same_matrix(a, b),
            (TransmitForm::Delta(a), TransmitForm::Delta(b)) => {
                let ((ra, ca, va), (rb, cb, vb)) = (a.raw_parts(), b.raw_parts());
                a.shape() == b.shape() && ra == rb && ca == cb && bits_of(va) == bits_of(vb)
            }
            _ => false,
        }
    }

    /// Shapes whose lengths sit on both sides of a [`CHUNK`] edge, span
    /// several chunks, or stay inside one.
    const SHAPES: [(usize, usize); 9] = [
        (1, 1023),
        (31, 33),
        (32, 32),
        (1024, 1),
        (25, 41),
        (5, 205),
        (13, 237),
        (2, 2048),
        (7, 3),
    ];

    /// Drives the encoder/decoder pair and the oracle through one stream
    /// drawn from `seed`: edits of every density from none to all, shape
    /// changes and resets. Returns the first step that differs.
    fn stream_matches_oracle<R: Carrier>(
        seed: u64,
        threshold: f64,
        steps: usize,
    ) -> Result<(), String> {
        let mut word = seed;
        let mut next_word = move || {
            // SplitMix64.
            word = word.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (word ^ (word >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut enc, mut dec) = (DeltaEncoder::with_threshold(threshold), DeltaDecoder::new());
        let mut oracle = Oracle::new(threshold);
        let (rows, cols) = SHAPES[(next_word() % SHAPES.len() as u64) as usize];
        let mut current = Matrix::from_fn(rows, cols, |_, _| R::draw(next_word()));
        for step in 0..steps {
            match next_word() % 10 {
                0 => {
                    let (rows, cols) = SHAPES[(next_word() % SHAPES.len() as u64) as usize];
                    current = Matrix::from_fn(rows, cols, |_, _| R::draw(next_word()));
                }
                1 => {
                    enc.reset();
                    dec.reset();
                    oracle.reset();
                }
                _ => {
                    let len = current.as_slice().len();
                    let q = len / 4;
                    let edits = [0, 1, 2, len / 8, q - 1, q, q + 1, len / 2, len];
                    let edits = edits[(next_word() % 9) as usize];
                    for _ in 0..edits {
                        let at = (next_word() % len as u64) as usize;
                        current.as_mut_slice()[at] = R::draw(next_word());
                    }
                }
            }
            let (form, want) = (enc.encode(&current), oracle.encode(&current));
            if !same_form(&form, &want) {
                return Err(format!("step {step}: form {form:?}, oracle {want:?}"));
            }
            let (got, want) = (dec.decode(form).unwrap(), oracle.decode(want).unwrap());
            if !same_matrix(got, &want) {
                return Err(format!("step {step}: decoded {got:?}, oracle {want:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn signed_zero_mirror_agrees_with_the_oracle() {
        // `0.0 - (-0.0)` is zero, so the encoder's mirror keeps `-0.0`
        // where the oracle's holds `0.0`; every later form must agree.
        let stream = [
            vec![-0.0, 5.0, -0.0, 1.0],
            vec![0.0, 5.0, -0.0, 1.0],
            vec![-0.0, 6.0, 0.0, 1.0],
            vec![f32::NAN, 6.0, 0.0, 1.0],
            vec![f32::NAN, 6.0, -0.0, 1.0],
        ];
        let mut enc = DeltaEncoder::with_threshold(0.0);
        let mut dec = DeltaDecoder::new();
        let mut oracle = Oracle::new(0.0);
        for data in stream {
            let m = Matrix::from_vec(4, 1, data);
            let (form, want) = (enc.encode(&m), oracle.encode(&m));
            assert!(same_form(&form, &want), "form {form:?}, oracle {want:?}");
            let want = oracle.decode(want).unwrap();
            assert!(same_matrix(dec.decode(form).unwrap(), &want));
        }
    }

    proptest! {
        /// The one-pass decision and count are the materialised delta's,
        /// with its zero count just below, at and just above the count the
        /// threshold asks for — on streams short and long enough to stop
        /// early in a later chunk — and the whole transmission is the
        /// oracle's.
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
            let mut chunk_nnz = Vec::new();
            let nnz = delta_is_sparse(&next, &prev, threshold, &mut chunk_nnz);
            prop_assert_eq!(nnz.is_some(), delta.zero_fraction() >= threshold);
            if let Some(nnz) = nnz {
                prop_assert_eq!(nnz, len - zeros);
                let per_chunk: Vec<u32> = delta
                    .as_slice()
                    .chunks(CHUNK)
                    .map(|c| c.iter().filter(|v| !v.is_zero()).count() as u32)
                    .collect();
                prop_assert_eq!(chunk_nnz, per_chunk);
            }

            let mut enc = DeltaEncoder::with_threshold(threshold);
            let mut dec = DeltaDecoder::new();
            let mut oracle = Oracle::new(threshold);
            for m in [&prev, &next, &next] {
                // The last send is unchanged: an empty delta.
                let form = enc.encode(m);
                let want = oracle.encode(m);
                prop_assert_eq!(&form, &want);
                prop_assert_eq!(dec.decode(form).unwrap(), &oracle.decode(want).unwrap());
            }
        }

        /// Multi-step streams on both carriers — `f32` values including
        /// `±0.0`, `NaN` and `±∞`, lengths across the chunk edge, shape
        /// changes and resets — put the oracle's forms on the wire and
        /// decode to its matrices, bit for bit, at every step.
        #[test]
        fn streams_match_the_oracle_on_both_carriers(
            threshold in prop::sample::select(vec![0.0, 0.5, 0.75, 0.9, 1.0]),
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(stream_matches_oracle::<u64>(seed, threshold, 12), Ok(()));
            prop_assert_eq!(stream_matches_oracle::<f32>(seed, threshold, 12), Ok(()));
        }
    }
}
