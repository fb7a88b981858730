#![deny(unsafe_op_in_unsafe_fn)]
//! Two-party computation substrate for ParSecureML-rs.
//!
//! Implements the protocol of the paper's Section 2.2 — additive secret
//! sharing with Beaver multiplication triples — over one carrier,
//! [`Fixed64`]-interpreted `u64`: `Z_{2^64}` with SecureML's 13-bit
//! fixed-point encoding and local share truncation, where reconstruction is
//! *exact* modular arithmetic and every mask is uniform over the ring.
//!
//! The protocol objects are deliberately explicit about *which party knows
//! what*: a [`SharePair`] is only ever held by the client; servers hold one
//! [`psml_tensor::Matrix`] share each plus their [`TripleShare`]; `E`/`F` become public
//! to both servers (that is the protocol's design — `E = A - U` is a
//! one-time-pad masking of `A`).
//!
//! This crate is the workspace's one protocol core: the online
//! multiplication exists once, in [`protocol`], as party-local steps over
//! borrowed operands — [`protocol::mask_operand`], once per secret
//! (nothing public),
//! [`protocol::reconstruct_public`] (`E`, `F` become public), then
//! [`protocol::finish`], [`protocol::finish_packed`] or
//! [`protocol::finish_hadamard`] (the output stays shared). Drivers —
//! [`secure_matmul`] here, `parsecureml`'s lock-step engine — schedule,
//! charge and ship around them and add no algebra of their own.
//!
//! ```
//! use psml_mpc::{secure_matmul, Fixed64, Party};
//! use psml_parallel::Mt19937;
//! use psml_tensor::Matrix;
//!
//! let mut rng = Mt19937::new(7);
//! let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
//! let b = Matrix::from_fn(3, 2, |r, c| (r as f64) - c as f64);
//! let c = secure_matmul::<Fixed64>(&a, &b, &mut rng);
//! let plain = a.matmul(&b);
//! assert!(c.max_abs_diff(&plain) < 1e-2);
//! ```

pub mod activation;
pub mod fixed;
pub mod protocol;
pub mod ring;
pub mod share;
pub mod triple;

pub use activation::{piecewise_activation, piecewise_derivative, relu, relu_derivative};
pub use fixed::{Fixed64, SCALE_BITS};
pub use protocol::{
    secure_hadamard, secure_matmul, secure_matmul_with, EvalStrategy, ServerMulSession,
};
pub use ring::{Party, SecureRing};
pub use share::{PlainMatrix, SharePair};
pub use triple::{
    follow_openings, gen_triple, gen_triple_streamed, mask_schedule, mask_schedule_from,
    BeaverTriple, Deal, Dealer, Dealt, DealtShare, MaskedProduct, Operand, Secret, TripleShare,
    TripleSpec,
};

#[cfg(test)]
mod proptests;
