//! Beaver multiplication triples (the offline phase's product).
//!
//! A triple for a `(m x k) * (k x n)` product is `(U, V, Z)` with
//! `Z = U * V`, each additively shared between the servers (paper
//! Eqs. (2)-(3)). Generating `Z` is >90 % of the offline time, which is why
//! the paper offloads exactly this multiplication to the GPU; the `mul`
//! parameter of [`gen_triple`] lets the caller inject the GPU kernel.

use crate::ring::SecureRing;
use crate::share::SharePair;
use psml_parallel::Mt19937;
use psml_tensor::Matrix;

/// Shape descriptor of one Beaver triple — the unit of the provisioning
/// pipeline's schedule. `Copy + Eq + Hash` so protocol-level caches and
/// queues can key on it without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TripleSpec {
    /// Triple for an `(m x k) * (k x n)` matrix product.
    Gemm {
        /// Rows of `A` / `U`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of `B` / `V`.
        n: usize,
    },
    /// Triple for an element-wise product of `m x n` matrices.
    Hadamard {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
    },
}

impl TripleSpec {
    /// Shape of `U` (and `A`).
    pub fn u_shape(&self) -> (usize, usize) {
        match *self {
            TripleSpec::Gemm { m, k, .. } => (m, k),
            TripleSpec::Hadamard { m, n } => (m, n),
        }
    }

    /// Shape of `V` (and `B`).
    pub fn v_shape(&self) -> (usize, usize) {
        match *self {
            TripleSpec::Gemm { k, n, .. } => (k, n),
            TripleSpec::Hadamard { m, n } => (m, n),
        }
    }

    /// Shape of `Z = U * V` (or `U o V`).
    pub fn z_shape(&self) -> (usize, usize) {
        match *self {
            TripleSpec::Gemm { m, n, .. } => (m, n),
            TripleSpec::Hadamard { m, n } => (m, n),
        }
    }

    /// The `(m, k, n)` triple the engine's cache keys on; Hadamard triples
    /// use `k = 0`, which no GEMM triple can collide with.
    pub fn dims(&self) -> (usize, usize, usize) {
        match *self {
            TripleSpec::Gemm { m, k, n } => (m, k, n),
            TripleSpec::Hadamard { m, n } => (m, 0, n),
        }
    }

    /// Ring elements of randomness this triple draws (`U + V` plus the
    /// three split masks).
    pub fn random_elems(&self) -> usize {
        let (ur, uc) = self.u_shape();
        let (vr, vc) = self.v_shape();
        let (zr, zc) = self.z_shape();
        2 * (ur * uc + vr * vc) + zr * zc
    }
}

/// One server's portion of a Beaver triple.
#[derive(Clone, PartialEq)]
pub struct TripleShare<R: SecureRing> {
    /// Share of the mask `U` (same shape as `A`).
    pub u: Matrix<R>,
    /// Share of the mask `V` (same shape as `B`).
    pub v: Matrix<R>,
    /// Share of the product `Z = U * V`.
    pub z: Matrix<R>,
}

/// Redacting formatter: shapes and ring only, never the mask limbs — a
/// leaked `U`/`V` share lets the other server unmask `A - U` / `B - V`.
impl<R: SecureRing> std::fmt::Debug for TripleShare<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripleShare")
            .field("u_shape", &self.u.shape())
            .field("v_shape", &self.v.shape())
            .field("z_shape", &self.z.shape())
            .field("ring", &std::any::type_name::<R>())
            .finish_non_exhaustive()
    }
}

/// A complete Beaver triple as generated by the client.
#[derive(Clone)]
pub struct BeaverTriple<R: SecureRing> {
    shares: [TripleShare<R>; 2],
}

/// Redacting formatter: delegates to the (already redacting)
/// [`TripleShare`] formatter for one side; the pair holds no extra
/// metadata worth printing.
impl<R: SecureRing> std::fmt::Debug for BeaverTriple<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeaverTriple")
            .field("share", &self.shares[0])
            .finish_non_exhaustive()
    }
}

impl<R: SecureRing> BeaverTriple<R> {
    /// One server's portion.
    pub fn share(&self, party: crate::Party) -> &TripleShare<R> {
        &self.shares[party.index()]
    }

    /// Consumes the triple into `(share_for_p0, share_for_p1)`.
    pub fn into_shares(self) -> (TripleShare<R>, TripleShare<R>) {
        let [s0, s1] = self.shares;
        (s0, s1)
    }

    /// Reconstructs `(U, V, Z)` — test/diagnostic use only; a real client
    /// never needs to and servers never can.
    pub fn reconstruct(&self) -> (Matrix<R>, Matrix<R>, Matrix<R>) {
        (
            self.shares[0].u.add(&self.shares[1].u),
            self.shares[0].v.add(&self.shares[1].v),
            self.shares[0].z.add(&self.shares[1].z),
        )
    }
}

/// Generates the Beaver triple for `spec`: draws `U` and `V` from `rng`,
/// computes `Z = U * V` (or `U o V` for a Hadamard triple, the CNN
/// point-to-point product path of Sec. 7.2), then splits all three.
///
/// Draw order is fixed: `U`, `V`, then the three split masks (`U`, `V`,
/// `Z`). `mul` computes a GEMM triple's `U * V`; pass
/// [`psml_tensor::gemm_auto`] for the CPU path or the simulated-GPU GEMM
/// for the paper's offline acceleration. Hadamard triples never call it.
pub fn gen_triple<R: SecureRing>(
    spec: TripleSpec,
    rng: &mut Mt19937,
    mul: impl FnOnce(&Matrix<R>, &Matrix<R>) -> Matrix<R>,
) -> BeaverTriple<R> {
    let (ur, uc) = spec.u_shape();
    let (vr, vc) = spec.v_shape();
    let u = R::random_matrix(ur, uc, rng);
    let v = R::random_matrix(vr, vc, rng);
    let z = match spec {
        TripleSpec::Gemm { .. } => mul(&u, &v),
        TripleSpec::Hadamard { .. } => u.hadamard(&v),
    };
    let [u, v, z] = [u, v, z].map(|x| SharePair::split_ring(&x, rng).into_shares());
    BeaverTriple {
        shares: [
            TripleShare {
                u: u.0,
                v: v.0,
                z: z.0,
            },
            TripleShare {
                u: u.1,
                v: v.1,
                z: z.1,
            },
        ],
    }
}

/// [`gen_triple`] over the counter-derived stream `(master, seq)` — see
/// [`Mt19937::from_stream`]. Every triple owns stream `seq` of `master`
/// outright, so its values depend only on `(master, seq, spec)`, never on
/// *when* or on *which thread* it was generated: that is what lets a
/// prefetch pipeline produce triples ahead of time or out of order while
/// staying bit-identical to on-demand generation.
pub fn gen_triple_streamed<R: SecureRing>(
    spec: TripleSpec,
    master: u64,
    seq: u64,
    mul: impl FnOnce(&Matrix<R>, &Matrix<R>) -> Matrix<R>,
) -> BeaverTriple<R> {
    gen_triple(spec, &mut Mt19937::from_stream(master, seq), mul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fixed64;
    use crate::Party;
    use psml_tensor::gemm_blocked;

    #[test]
    fn debug_output_redacts_triple_limbs() {
        let mut rng = Mt19937::new(29);
        let spec = TripleSpec::Gemm { m: 3, k: 4, n: 2 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_blocked);
        for rendered in [
            format!("{triple:?}"),
            format!("{:?}", triple.share(Party::P0)),
            format!("{:?}", triple.share(Party::P1)),
        ] {
            assert!(rendered.contains("shape"), "metadata missing: {rendered}");
            // Mask limbs are uniform 64-bit values; a run of 5+ digits in
            // the output would be a leaked limb.
            assert!(
                !rendered.chars().collect::<Vec<_>>().windows(5).any(|w| w
                    .iter()
                    .all(|c| c.is_ascii_digit())),
                "possible limb leak in Debug output: {rendered}"
            );
        }
    }

    #[test]
    fn triple_satisfies_z_eq_uv_exactly() {
        let mut rng = Mt19937::new(11);
        let spec = TripleSpec::Gemm { m: 3, k: 4, n: 2 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_blocked);
        let (u, v, z) = triple.reconstruct();
        assert_eq!(gemm_blocked(&u, &v), z);
    }

    #[test]
    fn hadamard_triple_satisfies_z_eq_uv() {
        let mut rng = Mt19937::new(13);
        let spec = TripleSpec::Hadamard { m: 5, n: 4 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, |_, _| unreachable!());
        let (u, v, z) = triple.reconstruct();
        assert_eq!(u.hadamard(&v), z);
    }

    #[test]
    fn shares_have_protocol_shapes() {
        let mut rng = Mt19937::new(17);
        let spec = TripleSpec::Gemm { m: 3, k: 4, n: 2 };
        let triple = gen_triple::<Fixed64>(spec, &mut rng, gemm_blocked);
        for p in Party::BOTH {
            let s = triple.share(p);
            assert_eq!(s.u.shape(), (3, 4));
            assert_eq!(s.v.shape(), (4, 2));
            assert_eq!(s.z.shape(), (3, 2));
        }
    }

    #[test]
    fn custom_mul_is_used() {
        // Inject a multiplier that tags its output; the reconstruction of z
        // must reflect it. (This is the seam the GPU plugs into.)
        let mut rng = Mt19937::new(19);
        let triple =
            gen_triple::<Fixed64>(TripleSpec::Gemm { m: 2, k: 2, n: 2 }, &mut rng, |_, _| {
                Matrix::from_fn(2, 2, |r, c| Fixed64((r * 2 + c) as u64))
            });
        let (_, _, z) = triple.reconstruct();
        assert_eq!(z[(1, 1)], Fixed64(3));
    }

    #[test]
    fn streamed_triples_are_replayable_and_order_free() {
        let spec = TripleSpec::Gemm { m: 3, k: 4, n: 2 };
        let a = gen_triple_streamed::<Fixed64>(spec, 99, 7, gemm_blocked);
        let b = gen_triple_streamed::<Fixed64>(spec, 99, 7, gemm_blocked);
        for p in Party::BOTH {
            assert_eq!(a.share(p), b.share(p), "same (master, seq) replays");
        }
        let (u, v, z) = a.reconstruct();
        assert_eq!(gemm_blocked(&u, &v), z);
        // Distinct sequence indices give distinct material.
        let c = gen_triple_streamed::<Fixed64>(spec, 99, 8, gemm_blocked);
        assert_ne!(a.share(Party::P0), c.share(Party::P0));
    }

    #[test]
    fn streamed_hadamard_triples_hold() {
        let spec = TripleSpec::Hadamard { m: 5, n: 4 };
        let t = gen_triple_streamed::<Fixed64>(spec, 3, 0, |_, _| unreachable!());
        let (u, v, z) = t.reconstruct();
        assert_eq!(u.hadamard(&v), z);
        assert_eq!(spec.dims(), (5, 0, 4));
    }

    #[test]
    fn spec_shapes_are_consistent() {
        let g = TripleSpec::Gemm { m: 2, k: 3, n: 5 };
        assert_eq!(g.u_shape(), (2, 3));
        assert_eq!(g.v_shape(), (3, 5));
        assert_eq!(g.z_shape(), (2, 5));
        assert_eq!(g.dims(), (2, 3, 5));
        assert_eq!(g.random_elems(), 2 * (6 + 15) + 10);
        let h = TripleSpec::Hadamard { m: 4, n: 6 };
        assert_eq!(h.u_shape(), (4, 6));
        assert_eq!(h.v_shape(), (4, 6));
        assert_eq!(h.z_shape(), (4, 6));
    }
}
