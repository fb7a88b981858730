//! Beaver multiplication triples and the dealer that makes them (the
//! offline phase's product).
//!
//! A triple for a `(m x k) * (k x n)` product is `(U, V, Z)` with
//! `Z = U * V`, each additively shared between the servers (paper
//! Eqs. (2)-(3)). Generating `Z` is >90 % of the offline time, which is why
//! the paper offloads exactly this multiplication to the GPU; the `mul`
//! parameter of [`gen_triple`] and [`Dealer::deal`] lets the caller inject
//! the GPU kernel.
//!
//! # Mask schedules
//!
//! A training step multiplies the same secret more than once: a layer's
//! input `a` in `a * W` and again in `a^T * dz`, `W` in `a * W` and in
//! `dz * W^T`, `dz` in both backward products. Opening one uniformly
//! masked value once is as secure as opening it twice under independent
//! masks (SecureML's vectorised SGD reuses `E` for `X` and `X^T`), so a
//! *mask schedule* masks each [`Secret`] once per lifetime — an activation
//! or a gradient for the step, a weight until its update — and every later
//! product reads the same public opening, transposed where it needs to.
//! [`mask_schedule`] marks each product's operands with their first and
//! last use; the result is a list of [`Deal`]s. A lifetime may span
//! schedules: a served model's weights are opened by the first forward
//! pass after they change and read by every later one
//! ([`mask_schedule_from`]), and [`follow_openings`] tracks what a run of
//! schedules leaves open.
//!
//! The [`Dealer`] deals a schedule in order, one product at a time, from
//! that product's own counter stream `(master, seq)`:
//!
//! 1. the masks the product *opens*, in operand order (`U` for the left,
//!    `V` for the right), drawn in the shape the product reads them;
//! 2. `Z = op(M_l) * op(M_r)`, where a mask opened by an earlier product is
//!    the one the dealer kept, transposed if this product reads it the
//!    other way round;
//! 3. the splits: each opened mask, then `Z`.
//!
//! That is [`gen_triple`]'s order with the reused masks left out, so a
//! product that opens both operands deals exactly the single-use triple of
//! its `(master, seq)`, bit for bit. The dealer keeps a plaintext mask
//! from its opening to the product that closes it, and no longer; an
//! opening of a secret it already holds replaces the kept mask.

use crate::ring::SecureRing;
use crate::share::SharePair;
use psml_parallel::Mt19937;
use psml_tensor::Matrix;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

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

/// A secret tensor of a training step, as a mask schedule names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Secret {
    /// The left operand of layer `layer`'s forward product at time step
    /// `step` (0 outside an RNN): the layer's input, its conv patches, or
    /// an RNN step's input slice. Lives for the step.
    Act {
        /// Layer index.
        layer: usize,
        /// RNN time step (0 elsewhere).
        step: usize,
    },
    /// An RNN layer's hidden state entering time step `step`. Lives for
    /// the step.
    Hidden {
        /// Layer index.
        layer: usize,
        /// Time step.
        step: usize,
    },
    /// Weight `which` of layer `layer`. Lives until the layer's update.
    Weight {
        /// Layer index.
        layer: usize,
        /// Index within the layer's weights.
        which: usize,
    },
    /// The gradient at layer `layer`'s pre-activation. Lives for the step.
    Grad {
        /// Layer index.
        layer: usize,
    },
}

/// One operand of a scheduled product: which secret, and whether the
/// product reads it transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Operand {
    /// The secret.
    pub secret: Secret,
    /// The product reads `secret^T`.
    pub transposed: bool,
}

/// One product of a mask schedule (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MaskedProduct {
    /// The product's shape, `op(left) * op(right)`; always a GEMM.
    pub spec: TripleSpec,
    /// `[left, right]`.
    pub operands: [Operand; 2],
    /// Per operand: this is the secret's first use, so this product deals
    /// its mask and the servers open it.
    pub opens: [bool; 2],
    /// Per operand: this is the secret's last use, so the opening and the
    /// dealer's mask are dropped after it.
    pub closes: [bool; 2],
}

/// One entry of a dealer's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Deal {
    /// A single-use triple: both masks are drawn for this product alone.
    Triple(TripleSpec),
    /// A product of a mask schedule.
    Masked(MaskedProduct),
}

impl From<TripleSpec> for Deal {
    fn from(spec: TripleSpec) -> Self {
        Deal::Triple(spec)
    }
}

impl Deal {
    /// The product's triple shape.
    pub fn spec(&self) -> TripleSpec {
        match self {
            Deal::Triple(spec) => *spec,
            Deal::Masked(p) => p.spec,
        }
    }

    /// Per operand: whether this product deals (and the servers open) its
    /// mask. A single-use triple opens both.
    pub fn opens(&self) -> [bool; 2] {
        match self {
            Deal::Triple(_) => [true, true],
            Deal::Masked(p) => p.opens,
        }
    }

    /// Ring elements one server receives for this product: the masks it
    /// opens and `Z`. Saturating: a spec too large to exist must reach the
    /// allocator and fail there, not wrap into a small number here.
    pub fn dealt_elems(&self) -> usize {
        let spec = self.spec();
        let [open_u, open_v] = self.opens();
        [(spec.u_shape(), open_u), (spec.v_shape(), open_v), (spec.z_shape(), true)]
            .iter()
            .filter(|&&(_, dealt)| dealt)
            .fold(0usize, |sum, &((rows, cols), _)| sum.saturating_add(rows.saturating_mul(cols)))
    }
}

/// The mask schedule of a walk's products, in order: each product's
/// triple shape and, for a product that masks its operands once per
/// lifetime, the secrets they are. Marks every operand's first use (it
/// opens) and last use (it closes); a product without operands stays a
/// single-use [`Deal::Triple`].
pub fn mask_schedule(products: &[(TripleSpec, Option<[Operand; 2]>)]) -> Vec<Deal> {
    mask_schedule_from(products, &HashSet::new(), |_| false)
}

/// [`mask_schedule`] continuing earlier schedules: a secret in `open` was
/// opened by an earlier product and is still open, so its uses here only
/// read that opening; a secret `stays_open` names is not closed at its
/// last use here (a served model's weight, open until the weights change).
pub fn mask_schedule_from(
    products: &[(TripleSpec, Option<[Operand; 2]>)],
    open: &HashSet<Secret>,
    stays_open: impl Fn(Secret) -> bool,
) -> Vec<Deal> {
    let uses = |secret: Secret| {
        products
            .iter()
            .enumerate()
            .flat_map(|(i, (_, ops))| ops.iter().flatten().map(move |op| (i, op.secret)))
            .filter(move |&(_, s)| s == secret)
            .map(|(i, _)| i)
    };
    products
        .iter()
        .enumerate()
        .map(|(i, &(spec, operands))| match operands {
            None => Deal::Triple(spec),
            Some(operands) => {
                let first = |j: usize| {
                    let s = operands[j].secret;
                    let first_use = uses(s).next() == Some(i);
                    first_use && (j == 0 || operands[0].secret != s) && !open.contains(&s)
                };
                let last = |j: usize| {
                    let s = operands[j].secret;
                    let last_use = uses(s).next_back() == Some(i);
                    last_use && (j == 1 || operands[1].secret != s) && !stays_open(s)
                };
                Deal::Masked(MaskedProduct {
                    spec,
                    operands,
                    opens: [first(0), first(1)],
                    closes: [last(0), last(1)],
                })
            }
        })
        .collect()
}

/// Follows `deals` from the secrets `open` before them: each product adds
/// the secrets it opens and then removes those it closes. A product that
/// reads a secret not open at that point is an error naming it — no
/// dealer can deal that schedule — and leaves `open` part-way.
pub fn follow_openings(open: &mut HashSet<Secret>, deals: &[Deal]) -> Result<(), String> {
    for (i, deal) in deals.iter().enumerate() {
        let Deal::Masked(p) = deal else { continue };
        for (op, opens) in p.operands.iter().zip(p.opens) {
            if opens {
                open.insert(op.secret);
            } else if !open.contains(&op.secret) {
                return Err(format!(
                    "product {i} of the batch reads {:?}, which no product opened \
                     (or one closed): {deal:?}",
                    op.secret
                ));
            }
        }
        for (op, _) in p.operands.iter().zip(p.closes).filter(|(_, closes)| *closes) {
            open.remove(&op.secret);
        }
    }
    Ok(())
}

/// One server's part of a dealt product: its shares of the masks the
/// product opens, in the shape the product reads them (`None` for an
/// operand opened earlier), and its share of `Z`.
#[doc = "psml-secret"]
#[derive(Clone, PartialEq)]
pub struct DealtShare<R: SecureRing> {
    /// `[left, right]` mask shares.
    pub masks: [Option<Matrix<R>>; 2],
    /// Share of `Z = op(M_l) * op(M_r)`.
    pub z: Matrix<R>,
}

/// Redacting formatter: shapes and ring only, never the mask limbs.
impl<R: SecureRing> std::fmt::Debug for DealtShare<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shapes = self.masks.each_ref().map(|m| m.as_ref().map(Matrix::shape));
        f.debug_struct("DealtShare")
            .field("mask_shapes", &shapes)
            .field("z_shape", &self.z.shape())
            .field("ring", &std::any::type_name::<R>())
            .finish_non_exhaustive()
    }
}

/// Both servers' parts of one dealt product.
#[doc = "psml-secret"]
#[derive(Clone)]
pub struct Dealt<R: SecureRing> {
    shares: [DealtShare<R>; 2],
}

/// Redacting formatter: one side's (redacted) shapes.
impl<R: SecureRing> std::fmt::Debug for Dealt<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dealt")
            .field("share", &self.shares[0])
            .finish_non_exhaustive()
    }
}

impl<R: SecureRing> From<BeaverTriple<R>> for Dealt<R> {
    fn from(triple: BeaverTriple<R>) -> Self {
        Dealt {
            shares: triple.shares.map(|TripleShare { u, v, z }| DealtShare {
                masks: [Some(u), Some(v)],
                z,
            }),
        }
    }
}

impl<R: SecureRing> Dealt<R> {
    /// One server's part.
    pub fn share(&self, party: crate::Party) -> &DealtShare<R> {
        &self.shares[party.index()]
    }

    /// Consumes the product into `[server0's, server1's]` parts.
    pub fn into_shares(self) -> [DealtShare<R>; 2] {
        self.shares
    }

    /// The single-use triple this is, when the product opened both masks.
    pub fn into_triple(self) -> Option<BeaverTriple<R>> {
        let [s0, s1] = self.shares.map(|DealtShare { masks, z }| match masks {
            [Some(u), Some(v)] => Some(TripleShare { u, v, z }),
            _ => None,
        });
        Some(BeaverTriple {
            shares: [s0?, s1?],
        })
    }
}

/// A plaintext mask the dealer keeps between its opening and closing
/// products, in the shape it was drawn.
struct Kept<R: SecureRing> {
    mask: Matrix<R>,
    transposed: bool,
}

/// Deals a schedule of [`Deal`]s in order (module docs). Holds the
/// plaintext masks opened and not yet closed, so it is as secret as the
/// client that runs it.
#[doc = "psml-secret"]
pub struct Dealer<R: SecureRing> {
    kept: HashMap<Secret, Kept<R>>,
}

impl<R: SecureRing> Default for Dealer<R> {
    fn default() -> Self {
        Dealer {
            kept: HashMap::new(),
        }
    }
}

impl<R: SecureRing> Dealer<R> {
    /// A dealer holding no masks.
    pub fn new() -> Self {
        Self::default()
    }

    /// `secret`'s kept mask as `op` reads it.
    fn view(&self, op: Operand) -> Cow<'_, Matrix<R>> {
        let kept = self
            .kept
            .get(&op.secret)
            .unwrap_or_else(|| panic!("{:?} is read before a product opened it", op.secret));
        // psml-lint: allow(timing, "branches on the public orientation the schedule names, never on the mask")
        if kept.transposed == op.transposed {
            Cow::Borrowed(&kept.mask)
        } else {
            Cow::Owned(kept.mask.transpose())
        }
    }

    /// Deals product `seq` of `master`'s schedule. `mul` computes `Z`.
    ///
    /// # Panics
    /// If the product reads a mask no earlier product opened (or one
    /// already closed): [`mask_schedule`] never builds such a schedule.
    pub fn deal(
        &mut self,
        deal: &Deal,
        master: u64,
        seq: u64,
        mul: impl FnOnce(&Matrix<R>, &Matrix<R>) -> Matrix<R>,
    ) -> Dealt<R> {
        let p = match deal {
            Deal::Triple(spec) => return gen_triple_streamed(*spec, master, seq, mul).into(),
            Deal::Masked(p) => p,
        };
        let rng = &mut Mt19937::from_stream(master, seq);
        for (j, (rows, cols)) in [p.spec.u_shape(), p.spec.v_shape()].into_iter().enumerate() {
            if p.opens[j] {
                let op = p.operands[j];
                let mask = R::random_matrix(rows, cols, rng);
                self.kept.insert(op.secret, Kept { mask, transposed: op.transposed });
            }
        }
        let z = {
            let [l, r] = p.operands.map(|op| self.view(op));
            debug_assert_eq!((l.shape(), r.shape()), (p.spec.u_shape(), p.spec.v_shape()));
            mul(&l, &r)
        };
        let mut masks = [[None, None], [None, None]];
        for (j, op) in p.operands.iter().enumerate() {
            if p.opens[j] {
                let kept = &self.kept[&op.secret].mask;
                let (m0, m1) = SharePair::split_ring(kept, rng).into_shares();
                [masks[0][j], masks[1][j]] = [Some(m0), Some(m1)];
            }
        }
        let (z0, z1) = SharePair::split_ring(&z, rng).into_shares();
        for (op, close) in p.operands.iter().zip(p.closes) {
            if close {
                self.kept.remove(&op.secret);
            }
        }
        let [m0, m1] = masks;
        Dealt {
            shares: [
                DealtShare { masks: m0, z: z0 },
                DealtShare { masks: m1, z: z1 },
            ],
        }
    }
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

    fn op(secret: Secret, transposed: bool) -> Operand {
        Operand { secret, transposed }
    }

    /// One dense layer's step: `x * W`, `x^T * d`, `d * W^T`.
    fn layer_step() -> Vec<Deal> {
        let (x, w, d) = (
            Secret::Act { layer: 0, step: 0 },
            Secret::Weight { layer: 0, which: 0 },
            Secret::Grad { layer: 0 },
        );
        mask_schedule(&[
            (TripleSpec::Gemm { m: 3, k: 4, n: 2 }, Some([op(x, false), op(w, false)])),
            (TripleSpec::Hadamard { m: 3, n: 2 }, None),
            (TripleSpec::Gemm { m: 4, k: 3, n: 2 }, Some([op(x, true), op(d, false)])),
            (TripleSpec::Gemm { m: 3, k: 2, n: 4 }, Some([op(d, false), op(w, true)])),
        ])
    }

    #[test]
    fn mask_schedule_marks_first_and_last_uses() {
        let marks: Vec<_> = layer_step()
            .iter()
            .map(|d| match d {
                Deal::Masked(p) => Some((p.opens, p.closes)),
                Deal::Triple(_) => None,
            })
            .collect();
        assert_eq!(
            marks,
            [
                Some(([true, true], [false, false])),
                None,
                Some(([false, true], [true, false])),
                Some(([false, false], [true, true])),
            ]
        );
        // One secret on both sides of its first product: the left opens,
        // the right reads that opening.
        let a = op(Secret::Act { layer: 1, step: 0 }, false);
        let t = op(a.secret, true);
        let square = mask_schedule(&[(TripleSpec::Gemm { m: 3, k: 3, n: 3 }, Some([a, t]))]);
        let Deal::Masked(p) = square[0] else { panic!("masked") };
        assert_eq!((p.opens, p.closes), ([true, false], [false, true]));
    }

    /// A served forward pass: `x * W`, with `W` open before it or not.
    fn served(open: &HashSet<Secret>) -> Vec<Deal> {
        let (x, w) = (Secret::Act { layer: 0, step: 0 }, Secret::Weight { layer: 0, which: 0 });
        let spec = TripleSpec::Gemm { m: 1, k: 4, n: 2 };
        let products = [(spec, Some([op(x, false), op(w, false)]))];
        mask_schedule_from(&products, open, |s| matches!(s, Secret::Weight { .. }))
    }

    #[test]
    fn a_weight_that_stays_open_is_opened_once_across_schedules() {
        let mut open = HashSet::new();
        let first = served(&open);
        let Deal::Masked(p) = first[0] else { panic!("masked") };
        assert_eq!((p.opens, p.closes), ([true, true], [true, false]));
        follow_openings(&mut open, &first).unwrap();
        assert_eq!(open, HashSet::from([Secret::Weight { layer: 0, which: 0 }]));
        let later = served(&open);
        let Deal::Masked(p) = later[0] else { panic!("masked") };
        assert_eq!((p.opens, p.closes), ([true, false], [true, false]));
        // Each later pass leaves the weight open and the input closed.
        for _ in 0..2 {
            follow_openings(&mut open, &later).unwrap();
            assert_eq!(open.len(), 1);
        }
        // Without the earlier opening, a later pass reads what nothing opened.
        let err = follow_openings(&mut HashSet::new(), &later).unwrap_err();
        assert!(err.contains("Weight"), "{err}");
        // The first pass deals the single-use triple; a later one reads
        // the kept mask of `W`.
        let mut dealer = Dealer::<Fixed64>::new();
        let dealt = dealer.deal(&first[0], 3, 0, gemm_blocked).into_triple().unwrap();
        let want = gen_triple_streamed::<Fixed64>(first[0].spec(), 3, 0, gemm_blocked);
        assert_eq!(dealt.share(Party::P0), want.share(Party::P0));
        let next = dealer.deal(&later[0], 3, 1, gemm_blocked);
        let open_u = |d: &Dealt<Fixed64>| {
            let [s0, s1] = [Party::P0, Party::P1].map(|p| d.share(p).masks[0].clone().unwrap());
            s0.add(&s1)
        };
        let z = next.share(Party::P0).z.add(&next.share(Party::P1).z);
        let (_, v, _) = dealt.reconstruct();
        assert!(next.share(Party::P0).masks[1].is_none());
        assert_eq!(z, gemm_blocked(&open_u(&next), &v), "Z = U_x * M_W of the first pass");
    }

    #[test]
    fn a_product_opening_both_masks_deals_the_single_use_triple() {
        let mut dealer = Dealer::<Fixed64>::new();
        let deals = layer_step();
        let got = dealer.deal(&deals[0], 42, 5, gemm_blocked);
        let want = gen_triple_streamed::<Fixed64>(deals[0].spec(), 42, 5, gemm_blocked);
        let triple = got.into_triple().expect("both masks dealt");
        for p in Party::BOTH {
            assert_eq!(triple.share(p), want.share(p));
        }
        assert_eq!(dealer.kept.len(), 2, "x and W stay for their later products");
    }

    #[test]
    fn later_products_multiply_the_kept_masks_and_drop_them_at_the_last_use() {
        let mut dealer = Dealer::<Fixed64>::new();
        let deals = layer_step();
        let dealt: Vec<Dealt<Fixed64>> = deals
            .iter()
            .enumerate()
            .map(|(seq, d)| dealer.deal(d, 9, seq as u64, gemm_blocked))
            .collect();
        assert!(dealer.kept.is_empty(), "every mask closed with its secret");
        let open = |i: usize, j: usize| {
            let [s0, s1] = [Party::P0, Party::P1].map(|p| dealt[i].share(p).masks[j].clone());
            s0.zip(s1).map(|(a, b)| a.add(&b))
        };
        let z = |i: usize| dealt[i].share(Party::P0).z.add(&dealt[i].share(Party::P1).z);
        let (mx, mw) = (open(0, 0).unwrap(), open(0, 1).unwrap());
        let md = open(2, 1).expect("d opens at x^T * d");
        assert!(open(2, 0).is_none() && open(3, 0).is_none() && open(3, 1).is_none());
        assert_eq!(z(0), gemm_blocked(&mx, &mw));
        assert_eq!(z(2), gemm_blocked(&mx.transpose(), &md));
        assert_eq!(z(3), gemm_blocked(&md, &mw.transpose()));
        // Each product draws from its own stream: the same deal at another
        // seq deals other material.
        let again = Dealer::<Fixed64>::new().deal(&deals[0], 9, 1, gemm_blocked);
        assert_ne!(again.share(Party::P0), dealt[0].share(Party::P0));
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
