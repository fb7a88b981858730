//! Model weight serialization.
//!
//! A small self-describing binary format (magic + version + per-matrix
//! shape headers + little-endian `f64` data) so trained models can be
//! exported by the client and reloaded into either the secure trainer or
//! the plaintext baseline. No external format crates required.

use crate::error::{ConfigError, EngineError, Result};
use psml_mpc::PlainMatrix;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PSMLWTS\x01";

/// Most elements `read_weights` reserves for a matrix before its data has
/// been read (512 KiB of `f64`).
const MAX_RESERVE: usize = 1 << 16;

/// Serializes layered weights (`layers x matrices-per-layer`) to a writer
/// and flushes it: a buffered writer's drop discards the error of its
/// final flush, so an unflushed tail would be reported as written.
pub fn write_weights<W: Write>(mut w: W, weights: &[Vec<PlainMatrix>]) -> Result<()> {
    let io_err = |e: std::io::Error| EngineError::io("write weights", &e);
    w.write_all(MAGIC).map_err(io_err)?;
    w.write_all(&(weights.len() as u32).to_le_bytes())
        .map_err(io_err)?;
    for layer in weights {
        w.write_all(&(layer.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        for m in layer {
            w.write_all(&(m.rows() as u32).to_le_bytes()).map_err(io_err)?;
            w.write_all(&(m.cols() as u32).to_le_bytes()).map_err(io_err)?;
            for &v in m.as_slice() {
                w.write_all(&v.to_le_bytes()).map_err(io_err)?;
            }
        }
    }
    w.flush().map_err(io_err)
}

/// Deserializes layered weights from a reader.
pub fn read_weights<R: Read>(mut r: R) -> Result<Vec<Vec<PlainMatrix>>> {
    let io_err = |e: std::io::Error| EngineError::io("read weights", &e);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(ConfigError::WeightFormat("bad weight-file magic".into()).into());
    }
    let mut u32buf = [0u8; 4];
    let mut read_u32 = |r: &mut R| -> Result<usize> {
        r.read_exact(&mut u32buf).map_err(io_err)?;
        Ok(u32::from_le_bytes(u32buf) as usize)
    };
    let layers = read_u32(&mut r)?;
    if layers > 4096 {
        return Err(ConfigError::WeightFormat("implausible layer count".into()).into());
    }
    let mut out = Vec::with_capacity(layers);
    for _ in 0..layers {
        let mats = read_u32(&mut r)?;
        if mats > 16 {
            return Err(ConfigError::WeightFormat("implausible matrix count".into()).into());
        }
        let mut layer = Vec::with_capacity(mats);
        for _ in 0..mats {
            let rows = read_u32(&mut r)?;
            let cols = read_u32(&mut r)?;
            if rows.checked_mul(cols).is_none_or(|n| n > (1 << 28)) {
                return Err(ConfigError::WeightFormat("implausible matrix shape".into()).into());
            }
            // The shape is only a claim until its data arrives: reserve a
            // bounded prefix and grow with what is actually read, so a
            // short file cannot buy a 2 GiB allocation with 24 bytes.
            let mut data = Vec::with_capacity((rows * cols).min(MAX_RESERVE));
            let mut f64buf = [0u8; 8];
            for _ in 0..rows * cols {
                r.read_exact(&mut f64buf).map_err(io_err)?;
                data.push(f64::from_le_bytes(f64buf));
            }
            layer.push(PlainMatrix::from_vec(rows, cols, data));
        }
        out.push(layer);
    }
    Ok(out)
}

/// Writes weights to a file.
pub fn save_weights(path: impl AsRef<Path>, weights: &[Vec<PlainMatrix>]) -> Result<()> {
    let f = std::fs::File::create(path).map_err(|e| EngineError::io("create weight file", &e))?;
    write_weights(std::io::BufWriter::new(f), weights)
}

/// Reads weights from a file.
pub fn load_weights(path: impl AsRef<Path>) -> Result<Vec<Vec<PlainMatrix>>> {
    let f = std::fs::File::open(path).map_err(|e| EngineError::io("open weight file", &e))?;
    read_weights(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<PlainMatrix>> {
        vec![
            vec![PlainMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.5 - 1.0)],
            vec![
                PlainMatrix::from_fn(4, 2, |r, c| -(r as f64) + c as f64),
                PlainMatrix::from_fn(2, 2, |r, c| (r + c) as f64 * 1e-6),
            ],
        ]
    }

    #[test]
    fn roundtrip_through_memory() {
        let weights = sample();
        let mut buf = Vec::new();
        write_weights(&mut buf, &weights).unwrap();
        let back = read_weights(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in weights.iter().flatten().zip(back.iter().flatten()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("psml-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.bin");
        let weights = sample();
        save_weights(&path, &weights).unwrap();
        let back = load_weights(&path).unwrap();
        assert_eq!(back[0][0], weights[0][0]);
        std::fs::remove_file(&path).ok();
    }

    /// Accepts every `write`, fails the `flush` — a `BufWriter` over a full
    /// disk behaves this way for the bytes still in its buffer.
    struct FlushFails;

    impl Write for FlushFails {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full"))
        }
    }

    #[test]
    fn unflushed_tail_is_a_typed_io_error() {
        match write_weights(FlushFails, &sample()).unwrap_err() {
            EngineError::Io { context, kind, .. } => {
                assert_eq!(context, "write weights");
                assert_eq!(kind, std::io::ErrorKind::StorageFull);
            }
            other => panic!("expected EngineError::Io, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTPSML\x01\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            read_weights(&buf[..]).unwrap_err(),
            EngineError::Config(_)
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let weights = sample();
        let mut buf = Vec::new();
        write_weights(&mut buf, &weights).unwrap();
        for cut in [4, 12, buf.len() - 3] {
            assert!(read_weights(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_model_roundtrips() {
        let mut buf = Vec::new();
        write_weights(&mut buf, &[]).unwrap();
        assert!(read_weights(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn implausible_headers_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd layer count
        assert!(read_weights(&buf[..]).is_err());
    }

    /// Magic, one layer of one matrix, then `dims` and `data`.
    fn one_matrix(dims: [u32; 2], data: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for v in [1, 1, dims[0], dims[1]] {
            buf.extend_from_slice(&u32::to_le_bytes(v));
        }
        buf.extend_from_slice(data);
        buf
    }

    #[test]
    fn huge_header_over_short_data_is_a_typed_error() {
        // 16384 x 16384 is within the shape bound, so only the data can
        // refute it: a 2 GiB claim backed by two values.
        let buf = one_matrix([16384, 16384], &[0u8; 16]);
        match read_weights(&buf[..]).unwrap_err() {
            EngineError::Io { context, kind, .. } => {
                assert_eq!(context, "read weights");
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected EngineError::Io, got {other:?}"),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever follows a valid magic — noise, or a small header over
        /// noise — reading it returns weights or a typed error, never a
        /// panic.
        #[test]
        fn arbitrary_bytes_after_magic_are_ok_or_typed(
            noise in prop::collection::vec(any::<u8>(), 0..96),
            dims in prop::collection::vec(any::<u32>(), 2),
            headed in any::<bool>(),
        ) {
            let buf = if headed {
                one_matrix([dims[0] % 64, dims[1] % 8192], &noise)
            } else {
                [&MAGIC[..], &noise[..]].concat()
            };
            match read_weights(&buf[..]) {
                Ok(_) | Err(EngineError::Io { .. }) | Err(EngineError::Config(_)) => {}
                Err(other) => prop_assert!(false, "untyped failure: {other:?}"),
            }
        }
    }
}
