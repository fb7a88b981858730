//! Property-based tests over the 2PC substrate.

use crate::activation::{piecewise_activation, piecewise_derivative};
use crate::fixed::{Fixed64, SCALE_BITS};
use crate::protocol::{
    finish, finish_hadamard, finish_packed, mask, reconstruct_public, secure_hadamard,
    secure_matmul, secure_matmul_with, EvalStrategy, ServerMulSession,
};
use crate::ring::{Party, PlainMatrix, SecureRing};
use crate::share::SharePair;
use crate::triple::{
    gen_triple, gen_triple_hadamard, gen_triple_streamed, BeaverTriple, TripleShare, TripleSpec,
};
use proptest::prelude::*;
use psml_parallel::Mt19937;
use psml_tensor::{gemm_blocked, gemm_naive, pack_b_auto, Matrix, Num};

fn small_plain(rows: usize, cols: usize) -> impl Strategy<Value = PlainMatrix> {
    prop::collection::vec(-8.0f64..8.0, rows * cols)
        .prop_map(move |v| PlainMatrix::from_vec(rows, cols, v))
}

/// Two servers' view of one product over shares of `a` and `b`: the ring
/// operands `(A, B)` the shares reconstruct to, `[A_i]`, `[B_i]`, the dealt
/// triple shares, both `[(E_i, F_i)]` from [`mask`], and the public `(E, F)`
/// from [`reconstruct_public`].
struct Dealt {
    ring: (Matrix<Fixed64>, Matrix<Fixed64>),
    a: [Matrix<Fixed64>; 2],
    b: [Matrix<Fixed64>; 2],
    t: [TripleShare<Fixed64>; 2],
    masked: [(Matrix<Fixed64>, Matrix<Fixed64>); 2],
    e: Matrix<Fixed64>,
    f: Matrix<Fixed64>,
}

fn deal(
    a: &PlainMatrix,
    b: &PlainMatrix,
    triple: BeaverTriple<Fixed64>,
    rng: &mut Mt19937,
) -> Dealt {
    let (a, b) = (SharePair::<Fixed64>::split(a, rng), SharePair::split(b, rng));
    let ring = (a.reconstruct_ring(), b.reconstruct_ring());
    let (a, b): ([_; 2], [_; 2]) = (a.into_shares().into(), b.into_shares().into());
    let t: [_; 2] = triple.into_shares().into();
    let masked = [0, 1].map(|i| mask(&a[i], &b[i], &t[i]));
    let e = reconstruct_public(&masked[0].0, &masked[1].0);
    let f = reconstruct_public(&masked[0].1, &masked[1].1);
    Dealt { ring, a, b, t, masked, e, f }
}

/// `C_0 + C_1` against `floor(exact / 2^13)`, in raw ring units: the two
/// may differ by one unit in the last place and no more — the documented
/// contract of [`SecureRing::truncate_share`] on `Fixed64`, which holds
/// except with probability `2^(log|z| + 1 - 64)` per element. The callers
/// draw `|x| <= 8` at shapes `<= 12`, so `|z| < 2^36` and that event has
/// probability `< 2^-27`: out of reach of the 32 cases the fixed proptest
/// seed generates, which is why the bound is asserted without slack.
fn within_one_lsb(shares: [Matrix<Fixed64>; 2], exact: &Matrix<Fixed64>) -> Result<(), String> {
    let got = shares[0].add(&shares[1]);
    for (got, exact) in got.as_slice().iter().zip(exact.as_slice()) {
        let want = ((exact.0 as i64) >> SCALE_BITS) as u64;
        let off = got.0.wrapping_sub(want) as i64;
        if off.abs() > 1 {
            return Err(format!("{off} LSB off the truncated ring product"));
        }
    }
    Ok(())
}

proptest! {
    /// The evaluation steps are pinned by a bound, not by closeness: under
    /// either strategy the two `finish` shares reconstruct to the truncated
    /// ring product of the reconstructed inputs within 1 LSB per element,
    /// and the production `finish_packed` is bit-identical to the
    /// materialised fused reference — called free and through
    /// `ServerMulSession`, so the delegation is covered too.
    #[test]
    fn finish_steps_meet_the_truncation_bound(
        m in 1usize..13, k in 1usize..13, n in 1usize..13,
        vals in prop::collection::vec(-8.0f64..8.0, 2 * 144),
        seed in any::<u32>(),
    ) {
        let mut rng = Mt19937::new(seed);
        let a = PlainMatrix::from_fn(m, k, |r, c| vals[r * k + c]);
        let b = PlainMatrix::from_fn(k, n, |r, c| vals[144 + r * n + c]);
        let triple = gen_triple::<Fixed64>(m, k, n, &mut rng, gemm_naive);
        let d = deal(&a, &b, triple, &mut rng);
        let exact = gemm_naive(&d.ring.0, &d.ring.1);
        let run = |strategy| Party::BOTH.map(|p| {
            let i = p.index();
            finish(p, &d.a[i], &d.b[i], &d.t[i].z, &d.e, &d.f, strategy, gemm_naive)
        });
        let fused = run(EvalStrategy::Fused);
        let f_packed = pack_b_auto(&d.f, m);
        for p in Party::BOTH {
            let i = p.index();
            let packed = finish_packed(p, &d.a[i], &d.b[i], &d.t[i].z, &d.e, &f_packed);
            prop_assert!(packed == fused[i], "finish_packed diverged from the fused reference");
            let session = ServerMulSession::new(p, d.a[i].clone(), d.b[i].clone(), d.t[i].clone());
            prop_assert!(session.masked() == d.masked[i]);
            prop_assert!(session.finish_packed_auto(&d.e, &f_packed) == fused[i]);
            prop_assert!(session.finish(&d.e, &d.f, EvalStrategy::Fused, gemm_naive) == fused[i]);
        }
        prop_assert_eq!(within_one_lsb(fused, &exact), Ok(()));
        prop_assert_eq!(within_one_lsb(run(EvalStrategy::Expanded), &exact), Ok(()));
    }

    /// The same bound for the element-wise step.
    #[test]
    fn finish_hadamard_meets_the_truncation_bound(
        m in 1usize..13, n in 1usize..13,
        vals in prop::collection::vec(-8.0f64..8.0, 2 * 144),
        seed in any::<u32>(),
    ) {
        let mut rng = Mt19937::new(seed);
        let a = PlainMatrix::from_fn(m, n, |r, c| vals[r * n + c]);
        let b = PlainMatrix::from_fn(m, n, |r, c| vals[144 + r * n + c]);
        let triple = gen_triple_hadamard::<Fixed64>(m, n, &mut rng);
        let d = deal(&a, &b, triple, &mut rng);
        let shares = Party::BOTH.map(|p| {
            let i = p.index();
            finish_hadamard(p, &d.a[i], &d.b[i], &d.t[i].z, &d.e, &d.f)
        });
        prop_assert_eq!(within_one_lsb(shares, &d.ring.0.hadamard(&d.ring.1)), Ok(()));
    }

    /// Fixed-point encode/decode round-trips within half a ULP.
    #[test]
    fn fixed_encode_decode(x in -1.0e6f64..1.0e6) {
        let err = (Fixed64::encode(x).decode() - x).abs();
        prop_assert!(err <= 0.5 / (1u64 << SCALE_BITS) as f64 + 1e-9);
    }

    /// Share/reconstruct is the exact identity in the ring, for any secret
    /// and any mask randomness.
    #[test]
    fn share_reconstruct_identity(vals in prop::collection::vec(any::<u64>(), 12), seed in any::<u32>()) {
        let secret = psml_tensor::Matrix::from_vec(3, 4, vals.into_iter().map(Fixed64).collect());
        let mut rng = Mt19937::new(seed);
        let pair = SharePair::split_ring(&secret, &mut rng);
        prop_assert_eq!(pair.reconstruct_ring(), secret);
    }

    /// Truncation error on shared products is at most ~1 ULP of the output
    /// scale (SecureML Theorem 1, for magnitudes far below the ring size).
    #[test]
    fn truncation_error_bound(a in -100.0f64..100.0, b in -100.0f64..100.0, seed in any::<u32>()) {
        let mut rng = Mt19937::new(seed);
        let prod = Fixed64::encode(a).mul(Fixed64::encode(b));
        let mask = Fixed64::random(&mut rng);
        let s0 = mask.truncate_share(Party::P0);
        let s1 = prod.sub(mask).truncate_share(Party::P1);
        let rec = s0.add(s1).decode();
        // Encoding contributes <= (|a|+|b|+1) * 2^-13; truncation <= 2^-12.
        let tol = (a.abs() + b.abs() + 2.0) / (1u64 << SCALE_BITS) as f64;
        prop_assert!((rec - a * b).abs() <= tol, "a={} b={} rec={}", a, b, rec);
    }

    /// The full protocol computes the right product for arbitrary small
    /// matrices, in both evaluation strategies.
    #[test]
    fn protocol_correct_any_input(a in small_plain(3, 4), b in small_plain(4, 2), seed in any::<u32>()) {
        let mut rng = Mt19937::new(seed);
        let plain = a.matmul(&b);
        let secure = secure_matmul::<Fixed64>(&a, &b, &mut rng);
        prop_assert!(secure.max_abs_diff(&plain) < 2e-2);
        let mut rng2 = Mt19937::new(seed.wrapping_add(1));
        let expanded = secure_matmul_with::<Fixed64>(&a, &b, &mut rng2, EvalStrategy::Expanded);
        prop_assert!(expanded.max_abs_diff(&plain) < 2e-2);
    }

    /// Hadamard protocol correctness.
    #[test]
    fn hadamard_correct(a in small_plain(4, 3), b in small_plain(4, 3), seed in any::<u32>()) {
        let mut rng = Mt19937::new(seed);
        let secure = secure_hadamard::<Fixed64>(&a, &b, &mut rng);
        prop_assert!(secure.max_abs_diff(&a.hadamard(&b)) < 1e-2);
    }

    /// Beaver triples always satisfy Z = U x V exactly in the ring.
    #[test]
    fn triples_always_consistent(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in any::<u32>()) {
        let mut rng = Mt19937::new(seed);
        let triple = gen_triple::<Fixed64>(m, k, n, &mut rng, gemm_blocked);
        let (u, v, z) = triple.reconstruct();
        prop_assert_eq!(gemm_blocked(&u, &v), z);
    }

    /// Counter-derived RNG streams for distinct sequence indices are
    /// pairwise non-overlapping: the windows of raw outputs two streams
    /// produce share no common run, so triples provisioned out of order
    /// can never alias each other's randomness. (`init_by_array` keys
    /// differing in one word yield unrelated states; we check the strong
    /// observable consequence on the actual output windows.)
    #[test]
    fn streams_pairwise_nonoverlapping(master in any::<u64>(), s1 in 0u64..10_000, offset in 1u64..10_000) {
        let s2 = s1 + offset;
        let window = |seq: u64| {
            let mut rng = Mt19937::from_stream(master, seq);
            (0..64).map(|_| rng.next_u32()).collect::<Vec<u32>>()
        };
        let w1 = window(s1);
        let w2 = window(s2);
        prop_assert_ne!(&w1, &w2);
        // No 16-output run of one stream appears anywhere in the other's
        // window — the streams are not shifted copies of each other.
        for start in 0..=(w1.len() - 16) {
            let run = &w1[start..start + 16];
            prop_assert!(
                !w2.windows(16).any(|w| w == run),
                "stream {} run at {} reappears in stream {}", s1, start, s2
            );
        }
        // And the derived triples differ outright.
        let spec = TripleSpec::Gemm { m: 2, k: 2, n: 2 };
        let t1 = gen_triple_streamed::<Fixed64>(spec, master, s1, gemm_blocked);
        let t2 = gen_triple_streamed::<Fixed64>(spec, master, s2, gemm_blocked);
        prop_assert_ne!(t1.share(Party::P0), t2.share(Party::P0));
    }

    /// A single share is statistically independent of the secret: replacing
    /// the secret entirely yields the same share-0 distribution (here:
    /// identical values under the same RNG stream).
    #[test]
    fn share0_independent_of_secret(vals1 in prop::collection::vec(-5.0f64..5.0, 9), vals2 in prop::collection::vec(-5.0f64..5.0, 9), seed in any::<u32>()) {
        let m1 = PlainMatrix::from_vec(3, 3, vals1);
        let m2 = PlainMatrix::from_vec(3, 3, vals2);
        let s1 = {
            let mut rng = Mt19937::new(seed);
            SharePair::<Fixed64>::split(&m1, &mut rng).into_shares().0
        };
        let s2 = {
            let mut rng = Mt19937::new(seed);
            SharePair::<Fixed64>::split(&m2, &mut rng).into_shares().0
        };
        prop_assert_eq!(s1, s2);
    }

    /// Eq. (9) activation: idempotent band behavior, bounds, and consistency
    /// between value and derivative (finite-difference check).
    #[test]
    fn activation_properties(x in -3.0f64..3.0) {
        let y = piecewise_activation(x);
        prop_assert!((0.0..=1.0).contains(&y));
        let h = 1e-6;
        let fd = (piecewise_activation(x + h) - piecewise_activation(x - h)) / (2.0 * h);
        // Away from the kinks, the analytic derivative matches.
        if (x.abs() - 0.5).abs() > 1e-3 {
            prop_assert!((fd - piecewise_derivative(x)).abs() < 1e-3);
        }
    }
}
