//! The one hardened byte cursor: how untrusted little-endian bytes are
//! written and read.
//!
//! Every byte format of the workspace is coded through this pair of cursor
//! types — the `MATROX2` / `MATROXF3` model files ([`crate::io`]) and the
//! `MATROXS1` serving protocol (`matrox_serve::proto`).  A model file comes
//! from disk and a request from a socket, so every decoded stream is
//! **untrusted input**, and all three formats inherit one contract:
//!
//! * every length field is validated against the bytes actually remaining
//!   *before* anything is allocated, so an adversarial 20-byte frame cannot
//!   request a multi-GiB `Vec`;
//! * every tag and flag must be canonical — a corrupted byte surfaces as
//!   [`MatroxError::Format`], never as a silently-normalized value;
//! * a successful decode consumes the stream exactly ([`WireReader::finish`]
//!   rejects trailing bytes), so accept-then-re-encode is bitwise lossless —
//!   the property the corruption-fuzz suites pin;
//! * nothing here panics on any input.
//!
//! Encoding is little-endian throughout.  Floating-point values round-trip
//! by bit pattern (NaN payloads included): the cursor transports bits and
//! the formats above decide what bit patterns mean
//! ([`WireReader::take_finite_f64`] is the one screening accessor, for
//! fields no valid stream leaves non-finite).  What the cursor cannot know
//! — cross-field consistency of a decoded model or message — is validated
//! by the format's own module after the fields are read.

use crate::error::MatroxError;

/// Append-only encoder for wire messages.  Infallible: encoding only ever
/// grows a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// A writer pre-sized for roughly `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes verbatim (magic headers).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte (tags, version numbers).
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by little-endian bit pattern (lossless for every
    /// value including NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a UTF-8 string as `u64` length + bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `usize` as a little-endian `u64` (counts, offsets, node ids).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a flag as its canonical byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append `f64` bit patterns back to back with no count prefix (payloads
    /// whose length the format stores elsewhere).  Reserves once for the run:
    /// value payload is nearly all of a model image.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Append an `f64` slice as `u64` element count + bit patterns.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        self.put_f64s(v);
    }

    /// Append a `usize` slice as `u64` element count + `u64` values.
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.buf.reserve(8 + v.len() * 8);
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }
}

/// Validating cursor over an untrusted byte slice.  Every accessor returns
/// [`MatroxError::Format`] instead of panicking or over-reading, and every
/// length-prefixed read is capped by the bytes remaining.
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn short<T>(&self, what: &str) -> Result<T, MatroxError> {
        Err(MatroxError::Format(format!(
            "unexpected end of stream reading {what} ({} bytes remaining)",
            self.remaining()
        )))
    }

    /// Consume `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], MatroxError> {
        if self.remaining() < n {
            return self.short(what);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume and verify a fixed magic header.
    pub fn expect_magic(&mut self, magic: &[u8], what: &str) -> Result<(), MatroxError> {
        let got = self.take_bytes(magic.len(), what)?;
        if got != magic {
            return Err(MatroxError::Format(format!(
                "bad {what} magic: expected \"{}\", got \"{}\"",
                magic.escape_ascii(),
                got.escape_ascii()
            )));
        }
        Ok(())
    }

    /// Consume one byte.
    pub fn take_u8(&mut self, what: &str) -> Result<u8, MatroxError> {
        Ok(self.take_bytes(1, what)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn take_u32(&mut self, what: &str) -> Result<u32, MatroxError> {
        let b = self.take_bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64, MatroxError> {
        let b = self.take_bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consume an `f64` bit pattern.
    pub fn take_f64(&mut self, what: &str) -> Result<f64, MatroxError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Consume a `u64` that must fit the host's `usize`.
    pub fn take_usize(&mut self, what: &str) -> Result<usize, MatroxError> {
        let v = self.take_u64(what)?;
        usize::try_from(v)
            .map_err(|_| MatroxError::Format(format!("{what} {v} does not fit in usize")))
    }

    /// Consume a flag.  Only the canonical encodings are accepted: a
    /// corrupted flag byte must surface as an error, not silently normalize
    /// on the next save.
    pub fn take_bool(&mut self, what: &str) -> Result<bool, MatroxError> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(MatroxError::Format(format!(
                "non-canonical bool byte {b:#04x} for {what}"
            ))),
        }
    }

    /// [`take_f64`](Self::take_f64) for fields that are finite in any valid
    /// stream (kernel parameters, accuracies, geometry): a NaN or infinity
    /// there is corruption, and accepting it would poison every later
    /// evaluation.
    pub fn take_finite_f64(&mut self, what: &str) -> Result<f64, MatroxError> {
        let v = self.take_f64(what)?;
        if !v.is_finite() {
            return Err(MatroxError::Format(format!("{what} is not finite ({v})")));
        }
        Ok(v)
    }

    /// Consume a `u64` element count that precedes `elem_bytes`-sized
    /// elements, rejecting counts that could not possibly fit in the
    /// remaining stream.  This caps every downstream `Vec::with_capacity`
    /// at the stream length — the core hardening of the PR-7 readers.
    pub fn take_len(&mut self, elem_bytes: usize, what: &str) -> Result<usize, MatroxError> {
        let len = self.take_usize(what)?;
        match len.checked_mul(elem_bytes.max(1)) {
            Some(total) if total <= self.remaining() => Ok(len),
            _ => Err(MatroxError::Format(format!(
                "{what} length {len} exceeds the {} bytes remaining",
                self.remaining()
            ))),
        }
    }

    /// Consume a `u64`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &str) -> Result<String, MatroxError> {
        let len = self.take_len(1, what)?;
        let bytes = self.take_bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| MatroxError::Format(format!("{what} is not valid UTF-8: {e}")))
    }

    /// Consume `len` back-to-back `f64` bit patterns (the counterpart of
    /// [`WireWriter::put_f64s`]).  The whole run is bounds-checked once, so
    /// the allocation is capped by the stream like every other read.
    pub fn take_f64s(&mut self, len: usize, what: &str) -> Result<Vec<f64>, MatroxError> {
        let Some(n_bytes) = len.checked_mul(8) else {
            return self.short(what);
        };
        let bytes = self.take_bytes(n_bytes, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Consume a `u64`-count-prefixed `f64` vector (bit patterns preserved).
    pub fn take_f64_vec(&mut self, what: &str) -> Result<Vec<f64>, MatroxError> {
        let len = self.take_len(8, what)?;
        self.take_f64s(len, what)
    }

    /// Consume a `u64`-count-prefixed `usize` vector.
    pub fn take_usize_vec(&mut self, what: &str) -> Result<Vec<usize>, MatroxError> {
        let len = self.take_len(8, what)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.take_usize(what)?);
        }
        Ok(v)
    }

    /// Assert the stream is fully consumed.  A valid message never has
    /// trailing bytes: accepting them would break the lossless
    /// accept-implies-identical-re-encode contract.
    pub fn finish(self, what: &str) -> Result<(), MatroxError> {
        if self.remaining() != 0 {
            return Err(MatroxError::Format(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = WireWriter::new();
        w.put_bytes(b"MAGIC!!!");
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_str("tenant-a");
        w.put_f64_slice(&[1.5, f64::NAN, f64::INFINITY]);
        w.put_usize(usize::MAX);
        w.put_bool(true);
        w.put_bool(false);
        w.put_usize_slice(&[3, 0, 9]);
        w.put_f64s(&[0.25, -8.0]);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        r.expect_magic(b"MAGIC!!!", "test").unwrap();
        assert_eq!(r.take_u8("tag").unwrap(), 7);
        assert_eq!(r.take_u32("len").unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64("corr").unwrap(), u64::MAX - 3);
        assert_eq!(r.take_f64("x").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_str("tenant").unwrap(), "tenant-a");
        let v = r.take_f64_vec("rhs").unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert!(v[1].is_nan(), "NaN bit pattern must survive");
        assert_eq!(v[2], f64::INFINITY);
        assert_eq!(r.take_usize("count").unwrap(), usize::MAX);
        assert!(r.take_bool("flag").unwrap());
        assert!(!r.take_bool("flag").unwrap());
        assert_eq!(r.take_usize_vec("ids").unwrap(), [3, 0, 9]);
        assert_eq!(r.take_f64s(2, "payload").unwrap(), [0.25, -8.0]);
        r.finish("test").unwrap();
    }

    #[test]
    fn adversarial_length_is_capped_before_allocation() {
        // A claimed element count of 2^60 over an 8-byte stream must be
        // rejected by take_len, never reach Vec::with_capacity.
        let mut w = WireWriter::new();
        w.put_u64(1u64 << 60);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.take_f64_vec("rhs").is_err());
        let mut r = WireReader::new(&bytes);
        assert!(r.take_str("name").is_err());
        let mut r = WireReader::new(&bytes);
        let err = r.take_usize_vec("perm").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "message: {err}");
        // An unprefixed run is capped the same way, including a count whose
        // byte size overflows.
        for len in [2, usize::MAX] {
            let mut r = WireReader::new(&bytes);
            assert!(r.take_f64s(len, "payload").is_err(), "run of {len}");
        }
    }

    #[test]
    fn non_canonical_bool_bytes_are_rejected() {
        for b in [2u8, 0x80, 0xff] {
            let bytes = [b];
            let mut r = WireReader::new(&bytes);
            assert!(
                matches!(r.take_bool("flag"), Err(MatroxError::Format(_))),
                "byte {b:#04x}"
            );
        }
        assert!(WireReader::new(&[]).take_bool("flag").is_err(), "truncated");
    }

    #[test]
    fn take_finite_f64_screens_nan_and_infinity() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = WireWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert!(matches!(
                r.take_finite_f64("bandwidth"),
                Err(MatroxError::Format(_))
            ));
            // The plain accessor still transports the bits.
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.take_f64("x").unwrap().to_bits(), v.to_bits());
        }
        let mut w = WireWriter::new();
        w.put_f64(-2.5);
        let bytes = w.into_bytes();
        assert_eq!(WireReader::new(&bytes).take_finite_f64("x").unwrap(), -2.5);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes[..5]);
        assert!(r.take_u64("x").is_err(), "truncated u64");

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_u32("x").unwrap(), 42);
        assert!(r.finish("msg").is_err(), "4 trailing bytes must fail");

        let mut r = WireReader::new(&bytes);
        assert!(r.expect_magic(b"MATROXS1", "frame").is_err(), "bad magic");
    }

    #[test]
    fn non_utf8_strings_are_format_errors() {
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.take_str("model"), Err(MatroxError::Format(_))));
    }
}
