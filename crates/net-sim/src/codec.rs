//! Wire serialization.
//!
//! A deliberately simple little-endian format (tag byte + shape header +
//! raw element bits). Payloads are *really* encoded and decoded on every
//! send/receive so that measured wire sizes — and therefore the Fig. 16
//! compression numbers — come from actual bytes, not estimates.
//!
//! Payload layout:
//! ```text
//! Dense:        0x01 | rows:u32 | cols:u32 | elems (BYTES each, LE)
//! SparseDelta:  0x02 | rows:u32 | cols:u32 | nnz:u32
//!                    | row_ptr (rows+1 x u32) | col_idx (nnz x u32)
//!                    | values (nnz x BYTES)
//! Control:      0x03 | len:u32 | utf-8 bytes
//! ```
//!
//! On the wire each payload travels inside a 16-byte frame header that
//! lets the receiver reject in-flight corruption as a typed error instead
//! of decoding garbage shares:
//! ```text
//! Frame: magic "PSML" (4) | seq:u64 (8) | crc32(seq || payload):u32 (4)
//!      | payload
//! ```
//! CRC-32 (IEEE polynomial) detects *every* single-bit error and all
//! burst errors up to 32 bits, which covers the bit-flip fault model in
//! [`crate::fault`]. The checksum lives in `crate::crc`: a byte-wise table
//! walk everywhere, carry-less-multiply folding for inputs of 64 bytes and
//! more on x86-64 hosts that report `pclmulqdq` + `sse4.1`. Both compute
//! the same polynomial remainder, so which one ran is invisible in the
//! bytes; every frame is sealed by its sender and verified by its
//! receiver either way.
//!
//! A frame is built in one buffer: [`encode_framed`] reserves the header,
//! serializes the payload straight behind it and patches the checksum in.
//! [`encode_frame`] and [`encode_stream_frame`] wrap already-encoded bytes
//! through the same seal routine. [`payload_bytes`] gives the encoded
//! length without encoding, so a sender can be charged (and refused)
//! before any serialization work.

pub use crate::crc::crc32;
use crate::crc::crc32_update;
use crate::message::Payload;
use psml_tensor::{Csr, Matrix, Num};

const TAG_DENSE: u8 = 0x01;
const TAG_SPARSE: u8 = 0x02;
const TAG_CONTROL: u8 = 0x03;

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"PSML";

/// Fixed frame-header size: magic (4) + sequence (8) + crc32 (4).
pub const FRAME_HEADER_BYTES: usize = 16;

/// Codec failures surfaced on receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared content.
    Truncated,
    /// Unknown payload tag byte.
    BadTag(u8),
    /// Control payload was not valid UTF-8.
    BadUtf8,
    /// Sparse payload of the right length whose CSR arrays are
    /// structurally inconsistent; carries the violated invariant.
    BadSparse(&'static str),
    /// Frame did not start with [`FRAME_MAGIC`]. `seq` is the (possibly
    /// itself corrupted) sequence number read from the header.
    BadMagic {
        /// Best-effort sequence number from the damaged header.
        seq: u64,
    },
    /// Frame checksum mismatch: the payload or header was altered in
    /// flight.
    Checksum {
        /// Sequence number claimed by the frame header.
        seq: u64,
    },
    /// Send side: the payload does not fit one stream record (see
    /// [`fits_stream_frame`]), so no peer could ever accept it.
    TooLarge {
        /// Length of the refused payload, in bytes.
        len: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown payload tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "control payload is not UTF-8"),
            CodecError::BadSparse(why) => write!(f, "malformed sparse payload: {why}"),
            CodecError::BadMagic { seq } => {
                write!(f, "frame {seq} does not start with PSML magic")
            }
            CodecError::Checksum { seq } => {
                write!(f, "frame {seq} failed checksum verification")
            }
            CodecError::TooLarge { len } => {
                write!(f, "payload of {len} bytes does not fit one stream record")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Size of the sealed-body header: seq (8) + crc32 (4).
const BODY_HEADER_BYTES: usize = 12;

/// The frame checksum field: CRC-32 over `seq || payload`, little-endian.
fn body_crc(seq_le: &[u8], payload: &[u8]) -> [u8; 4] {
    (!crc32_update(crc32_update(!0, seq_le), payload)).to_le_bytes()
}

/// Appends the part an in-memory frame and a stream record share —
/// `seq | crc32(seq || payload) | payload` — to `out`. `put_payload`
/// appends the payload bytes in place; the checksum is patched in behind
/// it, so the payload is written exactly once.
fn seal_body(out: &mut Vec<u8>, seq: u64, put_payload: impl FnOnce(&mut Vec<u8>)) {
    let body = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    put_payload(out);
    let (header, payload) = out[body..].split_at_mut(BODY_HEADER_BYTES);
    let (seq_le, stored) = header.split_at_mut(8);
    stored.copy_from_slice(&body_crc(seq_le, payload));
}

/// Splits a sealed body (at least [`BODY_HEADER_BYTES`] long) into its
/// claimed sequence number and payload, verifying the checksum.
fn open_body(body: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    let (header, payload) = body.split_at(BODY_HEADER_BYTES);
    let (seq_le, stored) = header.split_at(8);
    let seq = u64::from_le_bytes(seq_le.try_into().expect("8 bytes"));
    if body_crc(seq_le, payload) != stored {
        return Err(CodecError::Checksum { seq });
    }
    Ok((seq, payload))
}

/// Wraps encoded payload bytes in a checksummed, sequenced frame.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    seal_body(&mut frame, seq, |out| out.extend_from_slice(payload));
    frame
}

/// Serializes `payload` and frames it in one buffer: byte-for-byte
/// `encode_frame(seq, &encode(payload))` without the intermediate copy.
pub fn encode_framed<R: Num>(seq: u64, payload: &Payload<R>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload_bytes(payload));
    frame.extend_from_slice(&FRAME_MAGIC);
    seal_body(&mut frame, seq, |out| encode_into(out, payload));
    frame
}

/// Verifies a frame's magic and checksum, returning the sequence number
/// and a view of the payload bytes. Any single-bit flip anywhere in the
/// frame is rejected: a flip in the magic yields [`CodecError::BadMagic`],
/// a flip in the sequence number, checksum field, or payload yields
/// [`CodecError::Checksum`], and a lost tail yields
/// [`CodecError::Truncated`].
pub fn decode_frame(frame: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let (magic, body) = frame.split_at(FRAME_MAGIC.len());
    if magic != FRAME_MAGIC {
        let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        return Err(CodecError::BadMagic { seq });
    }
    open_body(body)
}

/// Little-endian reader over a received byte buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32_le(&mut self) -> Result<u32, CodecError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    /// The slice reader: `n` values of `width` little-endian bytes each,
    /// widened to `u64` and mapped through `from_bits`.
    fn get_slice<T>(
        &mut self,
        n: usize,
        width: usize,
        from_bits: impl Fn(u64) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let raw = self.take(n.checked_mul(width).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .chunks_exact(width)
            .map(|chunk| {
                let mut bytes = [0u8; 8];
                bytes[..width].copy_from_slice(chunk);
                from_bits(u64::from_le_bytes(bytes))
            })
            .collect())
    }
}

fn put_u32_le(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// The slice writer: the low `width` little-endian bytes of each value's
/// `to_bits` image.
fn put_slice<T: Copy>(buf: &mut Vec<u8>, xs: &[T], width: usize, to_bits: impl Fn(T) -> u64) {
    for &x in xs {
        buf.extend_from_slice(&to_bits(x).to_le_bytes()[..width]);
    }
}

/// Exact encoded size of a [`Payload::Dense`] matrix of the given shape:
/// tag (1) + rows (4) + cols (4) + elements. Wire length is a pure
/// function of shape, which is what lets the accounted (charge-only)
/// send path reproduce real transfer timing without serializing bytes.
pub const fn dense_payload_bytes<R: Num>(rows: usize, cols: usize) -> usize {
    9 + rows * cols * R::BYTES
}

/// Exact length of [`encode`]`(payload)`, computed without encoding.
pub fn payload_bytes<R: Num>(payload: &Payload<R>) -> usize {
    match payload {
        Payload::Dense(m) => dense_payload_bytes::<R>(m.rows(), m.cols()),
        Payload::SparseDelta(c) => {
            let (row_ptr, col_idx, values) = c.raw_parts();
            13 + (row_ptr.len() + col_idx.len()) * 4 + values.len() * R::BYTES
        }
        Payload::Control(s) => 5 + s.len(),
    }
}

/// Appends a payload's wire bytes to `buf`.
fn encode_into<R: Num>(buf: &mut Vec<u8>, payload: &Payload<R>) {
    match payload {
        Payload::Dense(m) => {
            buf.push(TAG_DENSE);
            put_u32_le(buf, m.rows() as u32);
            put_u32_le(buf, m.cols() as u32);
            put_slice(buf, m.as_slice(), R::BYTES, R::to_bits64);
        }
        Payload::SparseDelta(c) => {
            let (rows, cols) = c.shape();
            let (row_ptr, col_idx, values) = c.raw_parts();
            buf.push(TAG_SPARSE);
            put_u32_le(buf, rows as u32);
            put_u32_le(buf, cols as u32);
            put_u32_le(buf, values.len() as u32);
            put_slice(buf, row_ptr, 4, u64::from);
            put_slice(buf, col_idx, 4, u64::from);
            put_slice(buf, values, R::BYTES, R::to_bits64);
        }
        Payload::Control(s) => {
            buf.push(TAG_CONTROL);
            put_u32_le(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// Serializes a payload into its wire bytes.
pub fn encode<R: Num>(payload: &Payload<R>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload_bytes(payload));
    encode_into(&mut buf, payload);
    buf
}

/// Deserializes wire bytes back into a payload.
pub fn decode<R: Num>(buf: impl AsRef<[u8]>) -> Result<Payload<R>, CodecError> {
    let mut r = Reader { buf: buf.as_ref() };
    let tag = r.get_u8()?;
    match tag {
        TAG_DENSE => {
            let rows = r.get_u32_le()? as usize;
            let cols = r.get_u32_le()? as usize;
            if r.remaining() < rows.saturating_mul(cols).saturating_mul(R::BYTES) {
                return Err(CodecError::Truncated);
            }
            let data = r.get_slice(rows * cols, R::BYTES, R::from_bits64)?;
            Ok(Payload::Dense(Matrix::from_vec(rows, cols, data)))
        }
        TAG_SPARSE => {
            let rows = r.get_u32_le()? as usize;
            let cols = r.get_u32_le()? as usize;
            let nnz = r.get_u32_le()? as usize;
            let need = (rows.saturating_add(1).saturating_add(nnz)).saturating_mul(4)
                + nnz.saturating_mul(R::BYTES);
            if r.remaining() < need {
                return Err(CodecError::Truncated);
            }
            let row_ptr = r.get_slice(rows + 1, 4, |bits| bits as u32)?;
            let col_idx = r.get_slice(nnz, 4, |bits| bits as u32)?;
            let values = r.get_slice(nnz, R::BYTES, R::from_bits64)?;
            Csr::try_from_raw_parts(rows, cols, row_ptr, col_idx, values)
                .map(Payload::SparseDelta)
                .map_err(CodecError::BadSparse)
        }
        TAG_CONTROL => {
            let len = r.get_u32_le()? as usize;
            let raw = r.take(len)?.to_vec();
            String::from_utf8(raw)
                .map(Payload::Control)
                .map_err(|_| CodecError::BadUtf8)
        }
        other => Err(CodecError::BadTag(other)),
    }
}

// ------------------------------------------------------ stream framing --
//
// Byte-stream transports (TCP) do not preserve frame boundaries: a read
// may return half a frame, three frames, or a tail cut mid-header. The
// stream layer wraps each in-memory frame in a length-delimited record
// whose magic *leads*, so a receiver that lands mid-record can scan
// forward to the next `PSML` marker and resynchronize instead of
// declaring the whole stream corrupt:
//
// ```text
// Stream record: magic "PSML" (4) | len:u32 (4) | seq:u64 | crc32 | payload
//                                                `-------- len bytes -------'
// ```
//
// The record body after `len` is byte-identical to the in-memory frame
// minus its magic, so CRC coverage (seq || payload) is unchanged and
// wire-byte accounting for the simulated substrate is untouched.

/// Stream record header size: magic (4) + length (4).
pub const STREAM_HEADER_BYTES: usize = 8;

/// Upper bound on a stream record body. A corrupted length field must not
/// make the decoder buffer unbounded garbage waiting for a frame that
/// never completes; anything larger is treated as line noise and skipped.
pub const MAX_STREAM_FRAME_BYTES: usize = 1 << 28;

/// Room [`StreamDecoder::read_from`] offers the transport per `read`.
const READ_UNIT: usize = 64 * 1024;

/// True when a payload of `payload_len` bytes fits one stream record:
/// the body (`seq | crc | payload`) must not exceed
/// [`MAX_STREAM_FRAME_BYTES`], beyond which a [`StreamDecoder`] treats the
/// length field as line noise.
pub const fn fits_stream_frame(payload_len: usize) -> bool {
    payload_len <= MAX_STREAM_FRAME_BYTES - BODY_HEADER_BYTES
}

/// Wraps encoded payload bytes in a length-delimited stream record. The
/// payload must satisfy [`fits_stream_frame`]; senders check it first
/// ([`crate::supervise::Supervisor::send`] refuses with
/// [`CodecError::TooLarge`]).
pub fn encode_stream_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(fits_stream_frame(payload.len()), "oversize stream payload");
    let body_len = BODY_HEADER_BYTES + payload.len();
    let mut rec = Vec::with_capacity(STREAM_HEADER_BYTES + body_len);
    rec.extend_from_slice(&FRAME_MAGIC);
    rec.extend_from_slice(&(body_len as u32).to_le_bytes());
    seal_body(&mut rec, seq, |out| out.extend_from_slice(payload));
    rec
}

/// Incremental decoder for a byte stream of [`encode_stream_frame`]
/// records. Feed arbitrary chunks with [`StreamDecoder::push`] and drain
/// complete frames with [`StreamDecoder::next_frame`].
///
/// Recovery semantics:
/// - bytes that are not part of a well-formed record (torn tails after a
///   reconnect, line noise, a record whose length field was damaged) are
///   skipped by scanning forward to the next magic, counted in
///   [`StreamDecoder::skipped_bytes`];
/// - a well-delimited record whose CRC fails is consumed and surfaced as
///   a recoverable [`CodecError::Checksum`] — the *next* record decodes
///   normally, so one corrupt frame never poisons the stream.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Number of resynchronization events (forward scans that skipped data).
    resyncs: u64,
    /// Total bytes discarded while scanning for magic.
    skipped_bytes: u64,
}

impl StreamDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Performs one `read` on `src` straight into the decoder's own buffer
    /// ([`READ_UNIT`] bytes of room per call, so a large record costs one
    /// syscall per 64 KiB and no intermediate copy) and returns what `read`
    /// returned: `Ok(0)` is end of stream, and an error — `WouldBlock` and
    /// `TimedOut` included — leaves the buffered bytes as they were.
    pub fn read_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        // Copied from a static, not `resize`d: an unoptimized build fills
        // element by element, which at this size outweighs the syscall.
        static ROOM: [u8; READ_UNIT] = [0; READ_UNIT];
        let filled = self.buf.len();
        self.buf.extend_from_slice(&ROOM);
        let res = src.read(&mut self.buf[filled..]);
        self.buf.truncate(filled + *res.as_ref().unwrap_or(&0));
        res
    }

    /// Times the decoder lost alignment and had to scan for magic.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bytes discarded across all resynchronizations.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Bytes currently buffered awaiting a complete record.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Drops buffered bytes up to the next occurrence of [`FRAME_MAGIC`],
    /// keeping any trailing partial-magic prefix. Returns true if the
    /// buffer now starts with a full magic.
    fn scan_to_magic(&mut self) -> bool {
        let mut skipped = 0usize;
        let aligned = loop {
            let n = self.buf.len().saturating_sub(skipped);
            if n >= FRAME_MAGIC.len() {
                if self.buf[skipped..skipped + 4] == FRAME_MAGIC {
                    break true;
                }
                skipped += 1;
            } else {
                // Keep a suffix that could be the start of a magic split
                // across reads; drop everything that provably is not.
                let tail = &self.buf[skipped..];
                if FRAME_MAGIC.starts_with(tail) {
                    break false;
                }
                skipped += 1;
            }
        };
        if skipped > 0 {
            self.buf.drain(..skipped);
            self.resyncs += 1;
            self.skipped_bytes += skipped as u64;
        }
        aligned
    }

    /// Returns the next complete frame: `Some(Ok((seq, payload)))` for a
    /// verified frame, `Some(Err(_))` for a delimited-but-damaged frame
    /// (consumed; keep calling), or `None` when more bytes are needed.
    pub fn next_frame(&mut self) -> Option<Result<(u64, Vec<u8>), CodecError>> {
        loop {
            if !self.scan_to_magic() {
                return None;
            }
            if self.buf.len() < STREAM_HEADER_BYTES {
                return None;
            }
            let len = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes")) as usize;
            if !(BODY_HEADER_BYTES..=MAX_STREAM_FRAME_BYTES).contains(&len) {
                // Implausible length: the header itself is damaged, so the
                // record is not trustworthy as a delimiter. Skip one byte
                // and rescan for the next magic.
                self.buf.drain(..1);
                self.resyncs += 1;
                self.skipped_bytes += 1;
                continue;
            }
            let record_len = STREAM_HEADER_BYTES + len;
            if self.buf.len() < record_len {
                return None;
            }
            let frame = open_body(&self.buf[STREAM_HEADER_BYTES..record_len])
                .map(|(seq, payload)| (seq, payload.to_vec()));
            self.buf.drain(..record_len);
            return Some(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psml_mpc::Fixed64;

    fn dense() -> Payload<f32> {
        Payload::Dense(Matrix::from_fn(3, 5, |r, c| (r as f32) - 0.25 * c as f32))
    }

    fn sparse() -> Payload<u64> {
        let mut m = Matrix::<u64>::zeros(4, 4);
        m[(0, 1)] = 77;
        m[(3, 3)] = u64::MAX;
        Payload::SparseDelta(Csr::from_dense(&m))
    }

    #[test]
    fn dense_roundtrip() {
        let p = dense();
        assert_eq!(decode::<f32>(encode(&p)).unwrap(), p);
    }

    #[test]
    fn sparse_roundtrip() {
        let p = sparse();
        assert_eq!(decode::<u64>(encode(&p)).unwrap(), p);
    }

    #[test]
    fn control_roundtrip() {
        let p = Payload::<f32>::Control("epoch:3".to_string());
        assert_eq!(decode::<f32>(encode(&p)).unwrap(), p);
    }

    #[test]
    fn wire_size_matches_layout() {
        let p = dense();
        let bytes = encode(&p);
        assert_eq!(bytes.len(), 1 + 4 + 4 + 15 * 4);
        assert_eq!(bytes.len(), dense_payload_bytes::<f32>(3, 5));
        let p = sparse();
        let bytes = encode(&p);
        assert_eq!(bytes.len(), 1 + 12 + 5 * 4 + 2 * 4 + 2 * 8);
    }

    #[test]
    fn payload_bytes_is_the_encoded_length() {
        fn check<R: Num>(p: Payload<R>) {
            assert_eq!(payload_bytes(&p), encode(&p).len());
        }
        check(dense());
        check(Payload::<f32>::Dense(Matrix::zeros(0, 7)));
        let ring = Matrix::from_fn(5, 3, |r, c| Fixed64((r * 3 + c) as u64));
        check(Payload::Dense(ring));
        check(sparse());
        let mut delta = Matrix::<Fixed64>::zeros(6, 2);
        delta[(4, 1)] = Fixed64(9);
        check(Payload::SparseDelta(Csr::from_dense(&delta)));
        let unchanged = Csr::from_dense(&Matrix::<f32>::zeros(3, 3));
        check(Payload::SparseDelta(unchanged));
        check(Payload::<f32>::Control(String::new()));
        check(Payload::<Fixed64>::Control("epoch:3 \u{03b4}".to_string()));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let bytes = encode(&dense());
        for cut in [0, 1, 5, 9, bytes.len() - 1] {
            assert_eq!(
                decode::<f32>(&bytes[..cut]).unwrap_err(),
                CodecError::Truncated
            );
        }
    }

    #[test]
    fn malformed_sparse_structure_errors_cleanly() {
        // Length-correct payloads whose CSR arrays lie: layout is tag,
        // rows, cols, nnz, row_ptr[5], col_idx[2], values[2] for the 4x4
        // fixture (row_ptr = 0,1,1,1,2; col_idx = 1,3).
        let good = encode(&sparse());
        let with_u32 = |slot: usize, v: u32| {
            let mut bytes = good.clone();
            bytes[1 + 4 * slot..5 + 4 * slot].copy_from_slice(&v.to_le_bytes());
            decode::<u64>(bytes)
        };
        let bad = |slot, v| matches!(with_u32(slot, v), Err(CodecError::BadSparse(_)));
        assert!(bad(9, 4), "column index == cols");
        assert!(bad(8, u32::MAX), "column index far out of range");
        assert!(bad(5, 0), "decreasing row_ptr");
        assert!(bad(7, 1), "row_ptr terminator != nnz");
        assert!(bad(3, 1), "row_ptr does not start at 0");
        assert!(bad(1, 1), "cols shrunk below a stored index");
        // A damaged rows/nnz field changes the declared length instead.
        assert_eq!(with_u32(0, u32::MAX).unwrap_err(), CodecError::Truncated);
        assert_eq!(with_u32(2, u32::MAX).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn unknown_tag_rejected() {
        let raw: &[u8] = &[0x7F, 0, 0, 0];
        assert_eq!(decode::<f32>(raw).unwrap_err(), CodecError::BadTag(0x7F));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = vec![TAG_CONTROL];
        put_u32_le(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode::<f32>(buf).unwrap_err(), CodecError::BadUtf8);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let p = Payload::<f32>::Dense(Matrix::zeros(0, 7));
        assert_eq!(decode::<f32>(encode(&p)).unwrap(), p);
    }

    #[test]
    fn frame_roundtrip_preserves_seq_and_payload() {
        let payload = encode(&dense());
        let frame = encode_frame(42, &payload);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        let (seq, body) = decode_frame(&frame).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(body, &payload[..]);
    }

    #[test]
    fn frame_rejects_every_single_bit_flip() {
        // A 30-byte control frame (table-walk checksum) and a 285-byte
        // dense frame (long enough for the folded checksum tier).
        let wide = Matrix::from_fn(3, 23, |r, c| (r as f32) - 0.25 * c as f32);
        let frames = [
            encode_framed(7, &Payload::<f32>::Control("integrity".into())),
            encode_framed(8, &Payload::Dense(wide)),
        ];
        assert!(frames[0].len() < 64 && frames[1].len() >= 256);
        for frame in &frames {
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip of bit {bit} of a {}-byte frame went undetected",
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn stream_payload_bound_is_exact() {
        // seq (8) + crc (4) + payload must not exceed the decoder's limit.
        assert!(fits_stream_frame(0));
        assert!(fits_stream_frame(MAX_STREAM_FRAME_BYTES - 12));
        assert!(!fits_stream_frame(MAX_STREAM_FRAME_BYTES - 11));
        assert!(!fits_stream_frame(u32::MAX as usize + 1));
    }

    #[test]
    fn frame_magic_damage_is_distinguished() {
        let frame = encode_frame(9, b"xyz");
        let mut bad = frame.clone();
        bad[0] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadMagic { seq: 9 });
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x80;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::Checksum { seq: 9 });
        assert_eq!(
            decode_frame(&frame[..10]).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn frame_empty_payload_roundtrips() {
        let frame = encode_frame(u64::MAX, b"");
        let (seq, body) = decode_frame(&frame).unwrap();
        assert_eq!(seq, u64::MAX);
        assert!(body.is_empty());
    }

    #[test]
    fn stream_roundtrip_across_arbitrary_chunk_sizes() {
        let payloads: Vec<Vec<u8>> = (0..5u64)
            .map(|i| encode(&Payload::<f32>::Control(format!("msg:{i}"))))
            .collect();
        let mut wire = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&encode_stream_frame(i as u64, p));
        }
        for chunk in [1usize, 3, 7, wire.len()] {
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame() {
                    got.push(f.unwrap());
                }
            }
            assert_eq!(got.len(), payloads.len(), "chunk size {chunk}");
            for (i, (seq, body)) in got.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(body, &payloads[i]);
            }
            assert_eq!(dec.resyncs(), 0);
            assert_eq!(dec.buffered(), 0);
        }
    }

    /// `read_from` is `push` without the caller's buffer: short reads, a
    /// record larger than one read unit and an erroring source all leave
    /// the decoder exactly where `push` of the same bytes would.
    #[test]
    fn stream_read_from_matches_push() {
        struct Dribble<'a>(&'a [u8], usize);
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.1.min(out.len()).min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let big = vec![0xC3u8; 3 * READ_UNIT + 17];
        let mut wire = encode_stream_frame(0, b"small");
        wire.extend_from_slice(&encode_stream_frame(1, &big));
        for step in [4093usize, READ_UNIT, usize::MAX] {
            let mut src = Dribble(&wire, step);
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            loop {
                match dec.read_from(&mut src) {
                    Ok(n) => assert!(n > 0 && n <= READ_UNIT),
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
                        break;
                    }
                }
                while let Some(f) = dec.next_frame() {
                    got.push(f.unwrap());
                }
            }
            assert_eq!(got, vec![(0, b"small".to_vec()), (1, big.clone())]);
            assert_eq!((dec.buffered(), dec.resyncs()), (0, 0), "step {step}");
        }
    }

    #[test]
    fn stream_resynchronizes_after_torn_prefix() {
        // A receiver that attaches mid-stream sees the tail of one record
        // followed by complete ones; it must skip to the next magic.
        let a = encode_stream_frame(1, b"first");
        let b = encode_stream_frame(2, b"second");
        let mut dec = StreamDecoder::new();
        dec.push(&a[5..]); // torn: magic lost, tail is garbage
        dec.push(&b);
        let (seq, body) = dec.next_frame().unwrap().unwrap();
        assert_eq!((seq, body.as_slice()), (2, &b"second"[..]));
        assert!(dec.resyncs() >= 1);
        assert_eq!(dec.skipped_bytes() as usize, a.len() - 5);
        assert!(dec.next_frame().is_none());
    }

    #[test]
    fn stream_corrupt_record_is_recoverable() {
        let a = encode_stream_frame(1, b"alpha");
        let b = encode_stream_frame(2, b"beta");
        let mut wire = a.clone();
        let last = wire.len() - 1;
        wire[last] ^= 0x40; // damage alpha's payload, delimitation intact
        wire.extend_from_slice(&b);
        let mut dec = StreamDecoder::new();
        dec.push(&wire);
        assert_eq!(
            dec.next_frame().unwrap().unwrap_err(),
            CodecError::Checksum { seq: 1 }
        );
        let (seq, body) = dec.next_frame().unwrap().unwrap();
        assert_eq!((seq, body.as_slice()), (2, &b"beta"[..]));
    }

    #[test]
    fn stream_implausible_length_is_skipped() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        wire.extend_from_slice(&encode_stream_frame(9, b"ok"));
        let mut dec = StreamDecoder::new();
        dec.push(&wire);
        let (seq, body) = dec.next_frame().unwrap().unwrap();
        assert_eq!((seq, body.as_slice()), (9, &b"ok"[..]));
        assert!(dec.resyncs() >= 1);
    }

    #[test]
    fn stream_partial_magic_tail_is_retained() {
        let rec = encode_stream_frame(3, b"tail");
        let mut dec = StreamDecoder::new();
        dec.push(b"junk");
        dec.push(&rec[..2]); // "PS"
        assert!(dec.next_frame().is_none());
        dec.push(&rec[2..]);
        let (seq, body) = dec.next_frame().unwrap().unwrap();
        assert_eq!((seq, body.as_slice()), (3, &b"tail"[..]));
    }
}
