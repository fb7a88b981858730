//! The [`SecureRing`] abstraction and party identifiers.

use psml_parallel::Mt19937;
use psml_tensor::{Matrix, Num};

/// One of the two computing servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Party {
    /// Server 0 (the paper's `i = 0`).
    P0,
    /// Server 1 (the paper's `i = 1`).
    P1,
}

impl Party {
    /// The paper's index `i` in Eq. (6).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Party::P0 => 0,
            Party::P1 => 1,
        }
    }

    /// The peer server.
    #[inline]
    pub fn other(self) -> Party {
        match self {
            Party::P0 => Party::P1,
            Party::P1 => Party::P0,
        }
    }

    /// Both parties, in index order.
    pub const BOTH: [Party; 2] = [Party::P0, Party::P1];
}

/// A cleartext matrix as the client sees it.
pub type PlainMatrix = Matrix<f64>;

/// The carrier ring for additive secret sharing.
///
/// One implementation exists, [`crate::Fixed64`]: `Z_{2^64}` with 13-bit
/// fixed point (SecureML's representation). Sharing is *exact* modular
/// arithmetic, masks are uniform over the whole ring, and products need a
/// local truncation step. A float carrier cannot hide a value: its masks
/// are bounded, so `x - r` gives `x` away to within the mask's range.
pub trait SecureRing: Num {
    /// Encodes a cleartext value into the ring.
    fn encode(x: f64) -> Self;

    /// Decodes a ring element back to cleartext. Only meaningful for
    /// elements whose magnitude is small relative to the ring size
    /// (i.e. *reconstructed* values, never individual shares).
    fn decode(self) -> f64;

    /// SecureML's local post-multiplication share truncation.
    fn truncate_share(self, party: Party) -> Self;

    /// Writes `encode(x) - r` for each `x` of `xs` and the word `r` at
    /// the same position of `mask_le` into `out`, [`Num::BYTES`]
    /// little-endian bytes a word: the client's second share, split
    /// straight into a frame's payload from the mask already written in
    /// the first.
    ///
    /// # Panics
    ///
    /// Unless `out` and `mask_le` each hold exactly `xs.len()` words.
    fn encode_sub_le(out: &mut [u8], xs: &[f64], mask_le: &[u8]);

    /// Encodes a cleartext matrix element-wise.
    fn encode_matrix(m: &PlainMatrix) -> Matrix<Self>;

    /// Decodes a ring matrix element-wise.
    fn decode_matrix(m: &Matrix<Self>) -> PlainMatrix {
        let data = m.as_slice().iter().map(|x| x.decode()).collect();
        Matrix::from_vec(m.rows(), m.cols(), data)
    }

    /// Samples a uniform masking matrix.
    fn random_matrix(rows: usize, cols: usize, rng: &mut Mt19937) -> Matrix<Self>;

    /// Truncates every element of a product-share matrix in place.
    fn truncate_in_place(m: &mut Matrix<Self>, party: Party) {
        for x in m.as_mut_slice() {
            *x = x.truncate_share(party);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_indices_and_peers() {
        assert_eq!(Party::P0.index(), 0);
        assert_eq!(Party::P1.index(), 1);
        assert_eq!(Party::P0.other(), Party::P1);
        assert_eq!(Party::P1.other(), Party::P0);
        assert_eq!(Party::BOTH[0], Party::P0);
    }
}
