//! Additive secret shares of matrices.

pub use crate::ring::PlainMatrix;
use crate::ring::{Party, SecureRing};
use psml_parallel::Mt19937;
use psml_tensor::Matrix;

/// Both additive shares of one matrix: `secret = share0 + share1` in the
/// ring. Only the client ever holds a complete pair; servers receive one
/// side each ([`SharePair::into_shares`]).
#[derive(Clone, PartialEq)]
pub struct SharePair<R: SecureRing> {
    shares: [Matrix<R>; 2],
}

/// Redacting formatter: shape and ring only. Share limbs are
/// secret-equivalent (either one is a uniform one-time pad of the other),
/// so a derived `Debug` would leak them into logs and panic messages.
impl<R: SecureRing> std::fmt::Debug for SharePair<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharePair")
            .field("shape", &self.shares[0].shape())
            .field("ring", &std::any::type_name::<R>())
            .finish_non_exhaustive()
    }
}

impl<R: SecureRing> SharePair<R> {
    /// Encodes a cleartext matrix and splits it: share 0 is a uniform mask,
    /// share 1 is `encode(secret) - share0`. This is the client-side
    /// partitioning step of Fig. 1b / Fig. 4.
    pub fn split(plain: &PlainMatrix, rng: &mut Mt19937) -> Self {
        Self::split_ring(&R::encode_matrix(plain), rng)
    }

    /// Splits an existing ring matrix.
    pub fn split_ring(secret: &Matrix<R>, rng: &mut Mt19937) -> Self {
        let mask = R::random_matrix(secret.rows(), secret.cols(), rng);
        let other = secret.sub(&mask);
        SharePair {
            shares: [mask, other],
        }
    }

    /// Wraps two pre-existing shares.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn from_shares(share0: Matrix<R>, share1: Matrix<R>) -> Self {
        assert_eq!(share0.shape(), share1.shape(), "share shape mismatch");
        SharePair {
            shares: [share0, share1],
        }
    }

    /// The share destined for `party`.
    pub fn share(&self, party: Party) -> &Matrix<R> {
        &self.shares[party.index()]
    }

    /// Consumes the pair, yielding `(share0, share1)`.
    pub fn into_shares(self) -> (Matrix<R>, Matrix<R>) {
        let [s0, s1] = self.shares;
        (s0, s1)
    }

    /// Reconstructs the ring-domain secret (`share0 + share1`).
    pub fn reconstruct_ring(&self) -> Matrix<R> {
        self.shares[0].add(&self.shares[1])
    }

    /// Reconstructs and decodes to cleartext.
    pub fn reconstruct(&self) -> PlainMatrix {
        R::decode_matrix(&self.reconstruct_ring())
    }

    /// `(rows, cols)` of the shared matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.shares[0].shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fixed64;

    fn plain() -> PlainMatrix {
        PlainMatrix::from_fn(4, 3, |r, c| (r as f64) * 1.5 - (c as f64) * 0.25)
    }

    #[test]
    fn fixed_split_reconstructs_exactly_in_ring() {
        let mut rng = Mt19937::new(3);
        let secret = Fixed64::encode_matrix(&plain());
        let pair = SharePair::split_ring(&secret, &mut rng);
        assert_eq!(pair.reconstruct_ring(), secret);
    }

    #[test]
    fn fixed_split_decodes_to_cleartext() {
        let mut rng = Mt19937::new(4);
        let pair = SharePair::<Fixed64>::split(&plain(), &mut rng);
        assert!(pair.reconstruct().max_abs_diff(&plain()) < 1e-3);
    }

    #[test]
    fn debug_output_redacts_share_limbs() {
        let mut rng = Mt19937::new(40);
        let pair = SharePair::<Fixed64>::split(&plain(), &mut rng);
        let rendered = format!("{pair:?}");
        assert!(rendered.contains("SharePair"));
        assert!(rendered.contains("(4, 3)"), "shape is metadata: {rendered}");
        // No limb may appear: every share element is a >= 32-bit ring value
        // (uniform mask / masked secret), so any run of 5+ digits in the
        // output would be a leaked limb.
        assert!(
            !rendered.chars().collect::<Vec<_>>().windows(5).any(|w| w
                .iter()
                .all(|c| c.is_ascii_digit())),
            "possible limb leak in Debug output: {rendered}"
        );
    }

    #[test]
    fn shares_individually_look_unrelated_to_secret() {
        // Statistical smoke test: the Fixed64 mask share is uniform, so its
        // raw bits should not correlate with the (tiny) secret values.
        let mut rng = Mt19937::new(6);
        let pair = SharePair::<Fixed64>::split(&plain(), &mut rng);
        let s0 = pair.share(Party::P0);
        let distinct: std::collections::HashSet<u64> =
            s0.as_slice().iter().map(|x| x.raw()).collect();
        assert_eq!(distinct.len(), s0.len(), "mask share must be non-degenerate");
        // And every raw value should be "large" with overwhelming
        // probability (a tiny encoded secret is < 2^20).
        assert!(s0.as_slice().iter().any(|x| x.raw() > 1 << 32));
    }

    #[test]
    fn share_accessor_matches_into_shares() {
        let mut rng = Mt19937::new(7);
        let pair = SharePair::<Fixed64>::split(&plain(), &mut rng);
        let s0 = pair.share(Party::P0).clone();
        let s1 = pair.share(Party::P1).clone();
        let (t0, t1) = pair.into_shares();
        assert_eq!(s0, t0);
        assert_eq!(s1, t1);
    }

    #[test]
    #[should_panic(expected = "share shape mismatch")]
    fn from_shares_checks_shape() {
        let a = Matrix::<Fixed64>::zeros(2, 2);
        let b = Matrix::<Fixed64>::zeros(2, 3);
        let _ = SharePair::from_shares(a, b);
    }
}
