//! Property-based tests over the network substrate.

use crate::codec::{
    decode, decode_frame, encode, encode_frame, encode_framed, encode_stream_frame,
    StreamDecoder, STREAM_HEADER_BYTES,
};
use crate::compress::{DeltaDecoder, DeltaEncoder};
use crate::endpoint::build_network;
use crate::message::{NodeId, Payload};
use proptest::prelude::*;
use psml_simtime::{LinkModel, SimTime};
use psml_tensor::{Csr, Matrix};

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
    /// re-encodes to exactly those bytes — never a panic.
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
            // `rows` may shrink so that a valid document is a prefix.
            let again = encode(&p);
            prop_assert_eq!(&again[..], &bytes[..again.len()]);
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
            prop_assert_eq!(got, current.clone());
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
        // Turn the random cuts into sorted split offsets inside the wire.
        let mut offsets: Vec<usize> =
            cuts.iter().map(|&c| (c % (wire.len() as u64 + 1)) as usize).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        let mut prev = 0usize;
        for &off in offsets.iter().chain(std::iter::once(&wire.len())) {
            dec.push(&wire[prev..off]);
            prev = off;
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
