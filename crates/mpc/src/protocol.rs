//! The online triplet-multiplication protocol (paper Eqs. (4)-(8)), written
//! once, as party-local steps.
//!
//! A secure product over shares `A_i`, `B_i` and a triple share
//! `(U_i, V_i, Z_i)` is a few pure functions. Each runs on *one* server over
//! operands it borrows; none owns, copies, clocks or ships anything —
//! scheduling, charging and transport belong to the driver that calls them:
//!
//! | step | runs on | computes | becomes public |
//! |---|---|---|---|
//! | [`mask_operand`] (Eq. 4, *compute1*) | each server, once per secret | `E_i = A_i - U_i` for a secret the product opens | nothing yet: `E_i` is one-time-pad masked and goes to the peer only |
//! | [`mask`] | each server | [`mask_operand`] of both operands of a single-use triple | as above |
//! | [`masked_words`] | each server | [`mask_operand`] element by element, for a writer that puts `E_i` straight into its frame | as above |
//! | [`reconstruct_public`] (Eq. 5, *communicate*) | each server, on its own and its peer's half | `E = E_0 + E_1`, `F = F_0 + F_1` | `E` and `F`, to both servers — the protocol's one sanctioned reveal |
//! | [`reconstruct_words`] | each server | [`reconstruct_public`] from the two halves' words, read where they lie (the frames) | as above |
//! | [`finish`] (Eq. 6 / materialised Eq. 8, *compute2*) | each server | `C_i` through a caller-supplied GEMM | nothing (`C_i` is a share) |
//! | [`finish_packed`] (fused Eq. 8, the production CPU path) | each server | the same `C_i`, `[F ; B_i]` never materialised, `F` prepared once for both servers (packed above the blocked kernel's floor) | nothing |
//! | [`finish_hadamard`] (Sec. 7.2) | each server | the element-wise twin of Eq. 6 | nothing |
//!
//! `mask` runs once per *secret*, not once per product: under a mask
//! schedule ([`crate::triple`]) a product reads a secret opened by an
//! earlier product through that opening, transposed where it needs to, and
//! only the secrets it opens are masked and exchanged. [`finish_packed`]
//! runs unchanged on the kept `E`/`F`.
//!
//! Two drivers sit on top: the one-shot reference here
//! ([`secure_matmul_with`], [`secure_hadamard`]) and `parsecureml`'s
//! lock-step engine, which adds simulated time, traffic and placement.
//! [`ServerMulSession`] owns one server's operands between the steps.

use crate::ring::{Party, PlainMatrix, SecureRing};
use crate::share::SharePair;
use crate::triple::{gen_triple, TripleShare, TripleSpec};
use psml_parallel::Mt19937;
use psml_tensor::{gemm_auto, gemm_packed_sum_auto, pack_b_auto, AutoPackedB, Matrix};
use std::borrow::Cow;

/// How a server evaluates its output share `C_i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Eq. (6): three separate products `(-i) E*F + A_i*F + E*B_i`.
    Expanded,
    /// Eq. (8): the fused form `[(-i)E + A_i | E] * [F ; B_i]`, which
    /// replaces one multiplication with an addition — the paper's default.
    #[default]
    Fused,
}

/// *compute1* (Eq. (4)) of one operand: this server's half `X_i - M_i` of
/// the opening of a secret `X` masked by `M`, to send to its peer.
pub fn mask_operand<R: SecureRing>(x_i: &Matrix<R>, m_i: &Matrix<R>) -> Matrix<R> {
    x_i.sub(m_i)
}

/// [`mask_operand`] element by element, row-major: the words of `E_i`
/// for a writer to put straight into its frame, with no `E_i` matrix.
pub fn masked_words<'a, R: SecureRing>(
    x_i: &'a Matrix<R>,
    m_i: &'a Matrix<R>,
) -> impl ExactSizeIterator<Item = R> + 'a {
    assert_eq!(x_i.shape(), m_i.shape(), "shape mismatch");
    x_i.as_slice().iter().zip(m_i.as_slice()).map(|(&x, &m)| x.sub(m))
}

/// [`reconstruct_public`] of a `rows x cols` opening from its two halves'
/// words, row-major, in one pass: `E = mine + theirs`.
pub fn reconstruct_words<R: SecureRing>(
    rows: usize,
    cols: usize,
    mine: impl ExactSizeIterator<Item = R>,
    theirs: impl ExactSizeIterator<Item = R>,
) -> Matrix<R> {
    assert_eq!(mine.len(), theirs.len(), "shape mismatch");
    Matrix::from_vec(rows, cols, mine.zip(theirs).map(|(a, b)| a.add(b)).collect())
}

/// *compute1* of a single-use triple: one server's masked operands
/// `(E_i, F_i) = (A_i - U_i, B_i - V_i)`, to send to its peer.
pub fn mask<R: SecureRing>(
    a_i: &Matrix<R>,
    b_i: &Matrix<R>,
    triple: &TripleShare<R>,
) -> (Matrix<R>, Matrix<R>) {
    (mask_operand(a_i, &triple.u), mask_operand(b_i, &triple.v))
}

/// *communicate* (Eq. (5)): combines the two servers' masked matrices into
/// the public value (`E = E_0 + E_1`).
pub fn reconstruct_public<R: SecureRing>(mine: &Matrix<R>, theirs: &Matrix<R>) -> Matrix<R> {
    mine.add(theirs)
}

/// Eq. (8)'s left block `(-i)E + A_i`: server 0's is `A_0` itself.
fn left_block<'a, R: SecureRing>(
    party: Party,
    a_i: &'a Matrix<R>,
    e: &Matrix<R>,
) -> Cow<'a, Matrix<R>> {
    match party {
        Party::P0 => Cow::Borrowed(a_i),
        Party::P1 => Cow::Owned(a_i.sub(e)),
    }
}

/// The tail of every evaluation: `Z_i` is a share of a double-scale
/// product, so it joins *before* the fixed-point truncation.
fn add_z_and_truncate<R: SecureRing>(party: Party, mut c: Matrix<R>, z_i: &Matrix<R>) -> Matrix<R> {
    c.add_assign(z_i);
    R::truncate_in_place(&mut c, party);
    c
}

/// *compute2*: server `party`'s output share `C_i`, given the public `E`
/// and `F`. `mul` is the GEMM kernel to use; [`EvalStrategy::Fused`]
/// materialises Eq. (8)'s concatenations for it, which makes this the
/// reference [`finish_packed`] is tested against. Truncates fixed point.
#[allow(clippy::too_many_arguments)] // one server's whole view of the product
pub fn finish<R: SecureRing>(
    party: Party,
    a_i: &Matrix<R>,
    b_i: &Matrix<R>,
    z_i: &Matrix<R>,
    e: &Matrix<R>,
    f: &Matrix<R>,
    strategy: EvalStrategy,
    mut mul: impl FnMut(&Matrix<R>, &Matrix<R>) -> Matrix<R>,
) -> Matrix<R> {
    debug_assert_eq!((a_i.shape(), b_i.shape()), (e.shape(), f.shape()));
    let c = match strategy {
        EvalStrategy::Expanded => {
            // (-i) * E*F + A_i*F + E*B_i
            let mut acc = mul(a_i, f);
            acc.add_assign(&mul(e, b_i));
            if party == Party::P1 {
                acc.sub_assign(&mul(e, f));
            }
            acc
        }
        // [(-i)E + A_i | E] x [F ; B_i]
        EvalStrategy::Fused => mul(&left_block(party, a_i, e).hconcat(e), &f.vconcat(b_i)),
    };
    add_z_and_truncate(party, c, z_i)
}

/// *compute2* on the production CPU path: the fused Eq. (8) evaluated
/// through the packed kernel hierarchy.
///
/// Both servers' right-hand sides `[F ; B_i]` share the same public `F`
/// block, so the driver prepares `F` once (via [`pack_b_auto`]) and passes
/// it to each server; this server's `B_i` is prepared to match. Above
/// [`gemm_auto`]'s packing floor that means `F` is packed into panels once
/// for both servers; below it (a served single-row request) neither
/// operand is packed and the blocked kernel runs. The concatenations of
/// Eq. (8) are never materialized:
/// `[L | E] x [F ; B_i] = L*F + E*B_i`, which [`gemm_packed_sum_auto`]
/// accumulates in one pass over the output. Bit-identical to [`finish`] under [`EvalStrategy::Fused`] —
/// over the ring every kernel computes the same wrapping product.
pub fn finish_packed<R: SecureRing>(
    party: Party,
    a_i: &Matrix<R>,
    b_i: &Matrix<R>,
    z_i: &Matrix<R>,
    e: &Matrix<R>,
    f_packed: &AutoPackedB<'_, R>,
) -> Matrix<R> {
    debug_assert_eq!(a_i.shape(), e.shape());
    let left = left_block(party, a_i, e);
    let b_packed = f_packed.pack_matching(b_i);
    let c = gemm_packed_sum_auto(&[(&*left, f_packed), (e, &b_packed)]);
    add_z_and_truncate(party, c, z_i)
}

/// *compute2* of the element-wise product (Sec. 7.2, the CNN
/// point-to-point path): `C_i = A_i o F + E o B_i + (-i) E o F + Z_i`,
/// accumulated in that order, then truncated.
pub fn finish_hadamard<R: SecureRing>(
    party: Party,
    a_i: &Matrix<R>,
    b_i: &Matrix<R>,
    z_i: &Matrix<R>,
    e: &Matrix<R>,
    f: &Matrix<R>,
) -> Matrix<R> {
    let mut c = a_i.hadamard(f);
    c.add_assign(&e.hadamard(b_i));
    if party == Party::P1 {
        c.sub_assign(&e.hadamard(f));
    }
    add_z_and_truncate(party, c, z_i)
}

/// One server's operands for a single secure matrix multiplication, owned
/// between the steps. Every method is one of the module's free steps
/// applied to the owned shares.
#[derive(Clone, Debug)]
pub struct ServerMulSession<R: SecureRing> {
    party: Party,
    a: Matrix<R>,
    b: Matrix<R>,
    triple: TripleShare<R>,
}

impl<R: SecureRing> ServerMulSession<R> {
    /// Creates the session, validating every shape against the triple.
    ///
    /// # Panics
    /// Panics if `a`, `b` and the triple do not describe one
    /// `(m x k) * (k x n)` product.
    pub fn new(party: Party, a: Matrix<R>, b: Matrix<R>, triple: TripleShare<R>) -> Self {
        assert_eq!(a.shape(), triple.u.shape(), "A/U shape mismatch");
        assert_eq!(b.shape(), triple.v.shape(), "B/V shape mismatch");
        assert_eq!(
            (a.rows(), b.cols()),
            triple.z.shape(),
            "Z shape mismatch"
        );
        assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
        ServerMulSession {
            party,
            a,
            b,
            triple,
        }
    }

    /// This server's party.
    pub fn party(&self) -> Party {
        self.party
    }

    /// [`mask`] over the owned shares.
    pub fn masked(&self) -> (Matrix<R>, Matrix<R>) {
        mask(&self.a, &self.b, &self.triple)
    }

    /// [`finish`] over the owned shares.
    pub fn finish(
        &self,
        e: &Matrix<R>,
        f: &Matrix<R>,
        strategy: EvalStrategy,
        mul: impl FnMut(&Matrix<R>, &Matrix<R>) -> Matrix<R>,
    ) -> Matrix<R> {
        finish(self.party, &self.a, &self.b, &self.triple.z, e, f, strategy, mul)
    }

    /// [`finish_packed`] over the owned shares.
    pub fn finish_packed_auto(&self, e: &Matrix<R>, f_packed: &AutoPackedB<'_, R>) -> Matrix<R> {
        finish_packed(self.party, &self.a, &self.b, &self.triple.z, e, f_packed)
    }
}

/// The one-shot drivers' online opening: each server runs [`mask`] on its
/// shares and the pair is opened with [`reconstruct_public`] to `(E, F)`.
fn open_masks<R: SecureRing>(
    a_i: &[Matrix<R>; 2],
    b_i: &[Matrix<R>; 2],
    t: &[TripleShare<R>; 2],
) -> (Matrix<R>, Matrix<R>) {
    let [(e0, f0), (e1, f1)] = [0, 1].map(|i| mask(&a_i[i], &b_i[i], &t[i]));
    (reconstruct_public(&e0, &e1), reconstruct_public(&f0, &f1))
}

/// One-shot reference driver: runs the complete client + two-server
/// protocol in-process and returns the cleartext product. Used by tests
/// and the quickstart example; the lock-step engine in `parsecureml`
/// drives the same steps under simulated time.
pub fn secure_matmul<R: SecureRing>(
    a: &PlainMatrix,
    b: &PlainMatrix,
    rng: &mut Mt19937,
) -> PlainMatrix {
    secure_matmul_with::<R>(a, b, rng, EvalStrategy::Fused)
}

/// [`secure_matmul`] with an explicit evaluation strategy.
pub fn secure_matmul_with<R: SecureRing>(
    a: &PlainMatrix,
    b: &PlainMatrix,
    rng: &mut Mt19937,
    strategy: EvalStrategy,
) -> PlainMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Client: split inputs and generate the triple (offline phase).
    let a_i: [_; 2] = SharePair::<R>::split(a, rng).into_shares().into();
    let b_i: [_; 2] = SharePair::<R>::split(b, rng).into_shares().into();
    let spec = TripleSpec::Gemm { m, k, n };
    let t: [_; 2] = gen_triple::<R>(spec, rng, gemm_auto).into_shares().into();
    let (e, f) = open_masks(&a_i, &b_i, &t);
    // compute2 on each server, then the client merges C = C_0 + C_1.
    // The fused strategy prepares the shared public F once for both servers.
    let f_packed = (strategy == EvalStrategy::Fused).then(|| pack_b_auto(&f, m));
    let [c0, c1] = Party::BOTH.map(|p| {
        let (a_i, b_i, z_i) = (&a_i[p.index()], &b_i[p.index()], &t[p.index()].z);
        match &f_packed {
            Some(fp) => finish_packed(p, a_i, b_i, z_i, &e, fp),
            None => finish(p, a_i, b_i, z_i, &e, &f, strategy, gemm_auto),
        }
    });
    R::decode_matrix(&c0.add(&c1))
}

/// Secure element-wise (Hadamard) product, the CNN inner-product path.
pub fn secure_hadamard<R: SecureRing>(
    a: &PlainMatrix,
    b: &PlainMatrix,
    rng: &mut Mt19937,
) -> PlainMatrix {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    let a_i: [_; 2] = SharePair::<R>::split(a, rng).into_shares().into();
    let b_i: [_; 2] = SharePair::<R>::split(b, rng).into_shares().into();
    let spec = TripleSpec::Hadamard { m: a.rows(), n: a.cols() };
    let t: [_; 2] = gen_triple::<R>(spec, rng, |_, _| unreachable!()).into_shares().into();
    let (e, f) = open_masks(&a_i, &b_i, &t);
    let [c0, c1] = Party::BOTH.map(|p| {
        finish_hadamard(p, &a_i[p.index()], &b_i[p.index()], &t[p.index()].z, &e, &f)
    });
    R::decode_matrix(&c0.add(&c1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fixed64;

    fn plain_a() -> PlainMatrix {
        PlainMatrix::from_fn(4, 5, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.3)
    }

    fn plain_b() -> PlainMatrix {
        PlainMatrix::from_fn(5, 3, |r, c| (c as f64 + 1.0) * 0.4 - r as f64 * 0.2)
    }

    #[test]
    fn secure_matmul_matches_plain_fixed() {
        let mut rng = Mt19937::new(31);
        let (a, b) = (plain_a(), plain_b());
        let secure = secure_matmul::<Fixed64>(&a, &b, &mut rng);
        let plain = a.matmul(&b);
        assert!(
            secure.max_abs_diff(&plain) < 1e-2,
            "diff {}",
            secure.max_abs_diff(&plain)
        );
    }

    #[test]
    fn fused_and_expanded_agree() {
        let (a, b) = (plain_a(), plain_b());
        let mut rng1 = Mt19937::new(41);
        let mut rng2 = Mt19937::new(41);
        let fused = secure_matmul_with::<Fixed64>(&a, &b, &mut rng1, EvalStrategy::Fused);
        let expanded =
            secure_matmul_with::<Fixed64>(&a, &b, &mut rng2, EvalStrategy::Expanded);
        // Same RNG seed => identical shares => identical ring results.
        assert_eq!(fused, expanded);
    }

    #[test]
    fn finish_packed_auto_matches_generic_fused() {
        // The packed shared-F path is the same ring computation as the
        // generic fused closure path, so the shares must match bit-exactly
        // regardless of which representation the pack picks.
        let mut rng = Mt19937::new(61);
        let (a, b) = (plain_a(), plain_b());
        let a_pair = SharePair::<Fixed64>::split(&a, &mut rng);
        let b_pair = SharePair::<Fixed64>::split(&b, &mut rng);
        let spec = TripleSpec::Gemm { m: 4, k: 5, n: 3 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_auto);
        let (a0, a1) = a_pair.into_shares();
        let (b0, b1) = b_pair.into_shares();
        let (t0, t1) = triple.into_shares();
        let s0 = ServerMulSession::new(Party::P0, a0, b0, t0);
        let s1 = ServerMulSession::new(Party::P1, a1, b1, t1);
        let (e0, f0) = s0.masked();
        let (e1, f1) = s1.masked();
        let e = reconstruct_public(&e0, &e1);
        let f = reconstruct_public(&f0, &f1);
        let f_auto = pack_b_auto(&f, 4);
        for s in [&s0, &s1] {
            // The session's methods and the free steps are one computation.
            let (p, z, fused) = (s.party, &s.triple.z, EvalStrategy::Fused);
            let reference = finish(p, &s.a, &s.b, z, &e, &f, fused, psml_tensor::gemm_naive);
            assert_eq!(finish_packed(p, &s.a, &s.b, z, &e, &f_auto), reference);
            assert_eq!(s.finish_packed_auto(&e, &f_auto), reference);
            assert_eq!(s.finish(&e, &f, fused, psml_tensor::gemm_naive), reference);
        }
    }

    #[test]
    fn fused_and_expanded_agree_at_banded_dispatch_size() {
        // Large enough that gemm_auto and the fused sum band ring products
        // over a pool of two or more workers on AVX-512 hosts. Both
        // strategies must reconstruct the same cleartext bits.
        let dim = 160;
        let a = PlainMatrix::from_fn(dim, dim, |r, c| ((r * 7 + c) % 23) as f64 * 0.25 - 2.0);
        let b = PlainMatrix::from_fn(dim, dim, |r, c| ((r + 11 * c) % 19) as f64 * 0.5 - 4.0);
        let mut rng1 = Mt19937::new(67);
        let mut rng2 = Mt19937::new(67);
        let fused = secure_matmul_with::<Fixed64>(&a, &b, &mut rng1, EvalStrategy::Fused);
        let expanded = secure_matmul_with::<Fixed64>(&a, &b, &mut rng2, EvalStrategy::Expanded);
        assert_eq!(fused, expanded);
        assert!(fused.max_abs_diff(&a.matmul(&b)) < 0.5);
    }

    #[test]
    fn secure_hadamard_matches_plain() {
        let mut rng = Mt19937::new(43);
        let a = PlainMatrix::from_fn(6, 4, |r, c| (r as f64 - 2.0) * 0.7 + c as f64 * 0.1);
        let b = PlainMatrix::from_fn(6, 4, |r, c| (c as f64 - 1.0) * 0.6 - r as f64 * 0.05);
        let secure = secure_hadamard::<Fixed64>(&a, &b, &mut rng);
        let plain = a.hadamard(&b);
        assert!(secure.max_abs_diff(&plain) < 1e-2);
    }

    #[test]
    fn masked_values_hide_inputs() {
        // E_i = A_i - U_i is a fresh one-time pad: re-running with a
        // different RNG must give different masked values even for the same
        // input (no determinism leak).
        let (a, b) = (plain_a(), plain_b());
        let masked_with = |seed: u32| {
            let mut rng = Mt19937::new(seed);
            let a_pair = SharePair::<Fixed64>::split(&a, &mut rng);
            let b_pair = SharePair::<Fixed64>::split(&b, &mut rng);
            let spec = TripleSpec::Gemm { m: 4, k: 5, n: 3 };
            let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_auto);
            let (a0, _) = a_pair.into_shares();
            let (b0, _) = b_pair.into_shares();
            let (t0, _) = triple.into_shares();
            ServerMulSession::new(Party::P0, a0, b0, t0).masked()
        };
        let (e_a, f_a) = masked_with(1);
        let (e_b, f_b) = masked_with(2);
        assert_ne!(e_a, e_b);
        assert_ne!(f_a, f_b);
    }

    #[test]
    fn larger_values_survive_truncation() {
        let mut rng = Mt19937::new(47);
        let a = PlainMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 * 10.0 - 40.0);
        let b = PlainMatrix::from_fn(3, 3, |r, c| (c * 3 + r) as f64 * 5.0 - 20.0);
        let secure = secure_matmul::<Fixed64>(&a, &b, &mut rng);
        let plain = a.matmul(&b);
        // Absolute error grows with magnitude but stays tiny relative to
        // the ~1000-scale outputs.
        assert!(secure.max_abs_diff(&plain) < 0.05);
    }

    #[test]
    #[should_panic(expected = "A/U shape mismatch")]
    fn session_rejects_wrong_triple() {
        let mut rng = Mt19937::new(53);
        let spec = TripleSpec::Gemm { m: 2, k: 2, n: 2 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_auto);
        let (t0, _) = triple.into_shares();
        let a = Matrix::<Fixed64>::zeros(3, 2);
        let b = Matrix::<Fixed64>::zeros(2, 2);
        let _ = ServerMulSession::new(Party::P0, a, b, t0);
    }
}
