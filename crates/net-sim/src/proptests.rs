//! Property-based tests over the network substrate.

use crate::codec::{
    decode, decode_frame, encode, encode_frame, encode_framed, encode_stream_frame,
    StreamDecoder, FRAME_MAGIC, STREAM_HEADER_BYTES,
};
use crate::compress::{DeltaDecoder, DeltaEncoder};
use crate::endpoint::build_network;
use crate::message::{NodeId, Payload};
use proptest::prelude::*;
use psml_simtime::{LinkModel, SimTime};
use psml_tensor::{Csr, Matrix};

/// `bytes` split at the random `cuts` (taken modulo its length, sorted),
/// in order: arbitrary read boundaries over one stream.
fn chunks<'a>(bytes: &'a [u8], cuts: &[u64]) -> Vec<&'a [u8]> {
    let mut offsets: Vec<usize> =
        cuts.iter().map(|&c| (c % (bytes.len() as u64 + 1)) as usize).collect();
    offsets.sort_unstable();
    offsets.push(bytes.len());
    let mut prev = 0;
    offsets
        .into_iter()
        .map(|off| {
            let chunk = &bytes[prev..off];
            prev = off;
            chunk
        })
        .collect()
}

/// Bytes over the whole `u8` range, built from tokens that make whole
/// magics, plausible little-endian length fields (under 64) and partial
/// magics frequent, so the decoder's header and length paths are reached.
fn stream_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..5, any::<u32>()), 0..128).prop_map(|tokens| {
        let mut bytes = Vec::new();
        for (pick, x) in tokens {
            match pick {
                0 => bytes.extend_from_slice(&FRAME_MAGIC),
                1 => bytes.extend_from_slice(&(x % 64).to_le_bytes()),
                2 => bytes.extend_from_slice(&FRAME_MAGIC[..1 + x as usize % 3]),
                _ => bytes.push(x as u8),
            }
        }
        bytes
    })
}

/// Garbage that can never start a magic: any byte but `FRAME_MAGIC[0]`.
fn garbage() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        any::<u8>().prop_map(|b| if b == FRAME_MAGIC[0] { b.wrapping_add(1) } else { b }),
        0..48,
    )
}

fn matrices() -> impl Strategy<Value = Matrix<u64>> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(r, c)| {
            prop::collection::vec(any::<u64>(), r * c)
                .prop_map(move |v| Matrix::from_vec(r, c, v))
        })
}

/// 6x6 matrices with ~75 % zeros, in CSR form.
fn sparse_csrs() -> impl Strategy<Value = Csr<u64>> {
    prop::collection::vec((any::<u64>(), 0u8..4), 36).prop_map(|vals| {
        let data = vals.iter().map(|&(v, z)| if z == 0 { v } else { 0 }).collect();
        Csr::from_dense(&Matrix::from_vec(6, 6, data))
    })
}

proptest! {
    /// Any dense payload round-trips the codec bit-exactly.
    #[test]
    fn codec_dense_roundtrip(m in matrices()) {
        let p = Payload::Dense(m);
        prop_assert_eq!(decode::<u64>(encode(&p)).unwrap(), p);
    }

    /// Any sparse payload round-trips the codec bit-exactly.
    #[test]
    fn codec_sparse_roundtrip(csr in sparse_csrs()) {
        let p = Payload::SparseDelta(csr);
        prop_assert_eq!(decode::<u64>(encode(&p)).unwrap(), p);
    }

    /// Decoding any prefix of a valid encoding either succeeds on the full
    /// buffer or fails cleanly (no panic).
    #[test]
    fn codec_truncation_never_panics(m in matrices(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&Payload::Dense(m));
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = decode::<u64>(&bytes[..cut]);
    }

    /// Overwriting any one header or index word of a valid sparse encoding
    /// with arbitrary bits decodes to a typed error or to a payload that
    /// re-encodes to exactly those bytes — never a panic, and never a
    /// payload read from a prefix of them.
    #[test]
    fn codec_sparse_mutation_never_panics(
        csr in sparse_csrs(),
        slot in 0usize..64,
        word in any::<u32>(),
    ) {
        let words = 3 + 7 + csr.nnz();
        let mut bytes = encode(&Payload::SparseDelta(csr));
        let at = 1 + 4 * (slot % words);
        bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
        if let Ok(p) = decode::<u64>(&bytes) {
            prop_assert_eq!(encode(&p), bytes);
        }
    }

    /// A randomly drifting stream of matrices stays consistent through the
    /// delta encoder/decoder pair regardless of sparsity pattern.
    #[test]
    fn delta_stream_consistent(updates in prop::collection::vec(prop::collection::vec((0u8..6, any::<u64>()), 1..5), 1..12)) {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let mut current = Matrix::<u64>::zeros(6, 6);
        for step in updates {
            for (pos, val) in step {
                let r = (pos % 6) as usize;
                let c = ((pos / 6) % 6) as usize;
                current[(r, c)] = val;
            }
            let got = dec.decode(enc.encode(&current)).unwrap();
            prop_assert_eq!(got, &current);
        }
    }

    /// Messages between endpoints arrive in order, decoded exactly, with
    /// monotone arrival times.
    #[test]
    fn endpoint_fifo_and_timing(mats in prop::collection::vec(matrices(), 1..6)) {
        let [_, mut s0, mut s1] = build_network::<u64>(LinkModel::infiniband_100g());
        let mut now = SimTime::ZERO;
        for m in &mats {
            now = s0.send(NodeId::Server1, &Payload::Dense(m.clone()), now).unwrap();
        }
        let mut prev = SimTime::ZERO;
        for m in &mats {
            let pkt = s1.recv(NodeId::Server0).unwrap();
            prop_assert_eq!(&pkt.payload, &Payload::Dense(m.clone()));
            prop_assert!(pkt.available_at >= prev);
            prev = pkt.available_at;
        }
    }

    /// Wire accounting: stats equal the sum of actually transmitted frames.
    #[test]
    fn stats_match_frames(mats in prop::collection::vec(matrices(), 1..6)) {
        let [_, mut s0, mut s1] = build_network::<u64>(LinkModel::ethernet_1g());
        let mut expected = 0usize;
        for m in &mats {
            s0.send(NodeId::Server1, &Payload::Dense(m.clone()), SimTime::ZERO).unwrap();
        }
        for _ in &mats {
            let pkt = s1.recv(NodeId::Server0).unwrap();
            expected += pkt.wire_bytes;
        }
        prop_assert_eq!(s0.stats().total_wire_bytes(), expected);
        prop_assert_eq!(s0.stats().total_messages(), mats.len());
    }

    /// Any single-bit corruption of an encoded frame is detected: decoding
    /// never returns `Ok` with an altered payload. (CRC-32 detects all
    /// single-bit errors; a flip in the magic or length metadata is caught
    /// structurally.)
    #[test]
    fn frame_single_bit_flip_always_detected(m in matrices(), seq in any::<u64>(), flip in any::<u64>()) {
        let payload = encode(&Payload::Dense(m));
        let frame = encode_frame(seq, &payload);
        let bit = (flip % (frame.len() as u64 * 8)) as usize;
        let mut damaged = frame.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_frame(&damaged).is_err(),
            "bit {} flip slipped past the checksum", bit
        );
        // And the pristine frame still round-trips.
        let (got_seq, body) = decode_frame(&frame).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(body, &payload[..]);
    }

    /// Frame + payload round-trip: the full wire path (payload codec inside
    /// a checksummed frame) is lossless for arbitrary matrices, and the
    /// one-buffer sender path produces the same frame.
    #[test]
    fn framed_payload_roundtrip(m in matrices(), seq in any::<u64>()) {
        let p = Payload::Dense(m);
        let frame = encode_frame(seq, &encode(&p));
        prop_assert_eq!(&encode_framed(seq, &p), &frame);
        let (got_seq, body) = decode_frame(&frame).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(decode::<u64>(body).unwrap(), p);
    }

    /// A valid stream of length-delimited records split at *arbitrary*
    /// byte offsets reassembles losslessly: no split position may turn a
    /// torn read into a corruption verdict.
    #[test]
    fn stream_split_anywhere_reassembles(
        mats in prop::collection::vec(matrices(), 1..5),
        cuts in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let payloads: Vec<Vec<u8>> =
            mats.iter().map(|m| encode(&Payload::Dense(m.clone()))).collect();
        let mut wire = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&encode_stream_frame(i as u64, p));
        }
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for chunk in chunks(&wire, &cuts) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame() {
                got.push(f.expect("valid stream must never surface an error"));
            }
        }
        prop_assert_eq!(dec.resyncs(), 0);
        prop_assert_eq!(got.len(), payloads.len());
        for (i, (seq, body)) in got.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(body, &payloads[i]);
        }
    }

    /// Corrupting a record's *body* (delimitation intact — the fault model
    /// of in-flight bit flips, as opposed to torn reads) surfaces a typed
    /// checksum error for that record and never prevents the decoder from
    /// recovering every other record in the stream bit-exactly.
    #[test]
    fn stream_corruption_is_contained(
        mats in prop::collection::vec(matrices(), 2..5),
        victim in any::<u64>(),
        dmg in any::<u64>(),
    ) {
        let payloads: Vec<Vec<u8>> =
            mats.iter().map(|m| encode(&Payload::Dense(m.clone()))).collect();
        let recs: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| encode_stream_frame(i as u64, p))
            .collect();
        let v = (victim % recs.len() as u64) as usize;
        let mut wire = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            if i == v {
                let mut bad = rec.clone();
                let body = bad.len() - STREAM_HEADER_BYTES;
                let pos = STREAM_HEADER_BYTES + (dmg % body as u64) as usize;
                bad[pos] ^= 1 | ((dmg >> 8) as u8 & 0xFE);
                wire.extend_from_slice(&bad);
            } else {
                wire.extend_from_slice(rec);
            }
        }
        let mut dec = StreamDecoder::new();
        dec.push(&wire);
        let mut good = Vec::new();
        let mut errors = 0usize;
        while let Some(f) = dec.next_frame() {
            match f {
                Ok(frame) => good.push(frame),
                Err(_) => errors += 1,
            }
        }
        prop_assert_eq!(errors, 1, "exactly the victim record errors");
        prop_assert_eq!(good.len(), payloads.len() - 1);
        for (i, p) in payloads.iter().enumerate() {
            if i == v {
                continue;
            }
            prop_assert!(
                good.iter().any(|(seq, body)| *seq == i as u64 && body == p),
                "record {} lost to corruption in record {}", i, v
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes pushed in arbitrary chunks never panic the stream
    /// decoder: each drain ends in `None` (every `Some` consumes bytes, so
    /// a drain is bounded by what was pushed), and the decoder never holds
    /// more than it was given.
    #[test]
    fn stream_decoder_survives_arbitrary_bytes(
        bytes in stream_bytes(),
        cuts in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut dec = StreamDecoder::new();
        let mut pushed = 0usize;
        for chunk in chunks(&bytes, &cuts) {
            dec.push(chunk);
            pushed += chunk.len();
            let mut drained = 0usize;
            while dec.next_frame().is_some() {
                drained += 1;
                prop_assert!(drained <= pushed, "a drain yielded more frames than bytes pushed");
            }
            prop_assert!(dec.buffered() <= pushed);
        }
    }

    /// Garbage that holds no `FRAME_MAGIC[0]`, spliced before, between and
    /// after valid records and read in arbitrary chunks, is skipped byte
    /// for byte: every record comes back `Ok`, in order, with its seq and
    /// payload.
    #[test]
    fn stream_decoder_resyncs_past_spliced_garbage(
        mats in prop::collection::vec(matrices(), 1..4),
        junk in prop::collection::vec(garbage(), 4),
        cuts in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let payloads: Vec<Vec<u8>> =
            mats.iter().map(|m| encode(&Payload::Dense(m.clone()))).collect();
        let mut wire = junk[0].clone();
        for (i, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&encode_stream_frame(i as u64, p));
            wire.extend_from_slice(&junk[i + 1]);
        }
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for chunk in chunks(&wire, &cuts) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame() {
                got.push(f);
            }
        }
        let spliced: usize = junk[..=payloads.len()].iter().map(Vec::len).sum();
        prop_assert_eq!(dec.skipped_bytes(), spliced as u64);
        prop_assert_eq!(dec.buffered(), 0);
        prop_assert_eq!(got.len(), payloads.len());
        for (i, f) in got.into_iter().enumerate() {
            prop_assert_eq!(f, Ok((i as u64, payloads[i].clone())));
        }
    }
}

/// `rows x cols` ring words drawn from `seed` and `salt` (splitmix).
fn ring_words(rows: usize, cols: usize, seed: u64, salt: u64) -> Matrix<psml_mpc::Fixed64> {
    Matrix::from_fn(rows, cols, |r, c| {
        let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r * cols + c) as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        psml_mpc::Fixed64(x ^ (x >> 31))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One opening, one pass each way, against the two-step oracle: each
    /// party's frame written straight from `X_i - M_i` is byte for byte
    /// the frame of its materialised `E_i`, and `E` rebuilt on either
    /// party from its own frame's words and its peer's receipt is
    /// `reconstruct_public(E_0, E_1)` bit for bit. The last shape is above
    /// the engine's two-party join floor (2^16 elements).
    #[test]
    fn one_pass_opening_matches_the_two_step_oracle(seed in any::<u64>(), seq in any::<u64>()) {
        use crate::codec::DenseFrame;
        use psml_mpc::protocol::{
            mask_operand, masked_words, reconstruct_public, reconstruct_words,
        };
        for (rows, cols) in [(1, 1), (1, 2048), (7, 13), (257, 256)] {
            let x = [1, 2].map(|salt| ring_words(rows, cols, seed, salt));
            let m = [3, 4].map(|salt| ring_words(rows, cols, seed, salt));
            let halves = [0, 1].map(|i| mask_operand(&x[i], &m[i]));
            let e = reconstruct_public(&halves[0], &halves[1]);

            let frames =
                [0, 1].map(|i| DenseFrame::write(rows, cols, masked_words(&x[i], &m[i])));
            for (frame, half) in frames.iter().zip(&halves) {
                let oracle = encode_framed(seq, &Payload::Dense(half.clone()));
                prop_assert_eq!(frame.clone().sealed(seq), oracle);
            }
            let [_, mut s0, mut s1] = build_network(LinkModel::infiniband_100g());
            s1.send_frame(NodeId::Server0, frames[1].clone(), SimTime::ZERO).unwrap();
            s0.send_frame(NodeId::Server1, frames[0].clone(), SimTime::ZERO).unwrap();
            let theirs = [
                s0.recv_dense(NodeId::Server1).unwrap(),
                s1.recv_dense(NodeId::Server0).unwrap(),
            ];
            for (mine, got) in frames.iter().zip(&theirs) {
                prop_assert_eq!(got.frame.shape(), (rows, cols));
                let opened = reconstruct_words(rows, cols, mine.words(), got.frame.words());
                prop_assert_eq!(&opened, &e);
            }
        }
    }
}
