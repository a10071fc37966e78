//! A minimal length-prefixed binary codec with typed decode errors.
//!
//! Design rules (documented in DESIGN.md and relied on by the checkpoint
//! tests):
//!
//! - All integers are little-endian fixed width.
//! - `f64` is encoded as its IEEE-754 bit pattern (`to_bits`), so encode →
//!   decode round-trips are bit-exact, including NaN payloads and `-0.0`.
//! - Sequences are a `u64` length prefix followed by the elements.
//! - Decoding never panics: every failure is a [`CodecError`].

use std::fmt;

/// Typed decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested field could be read.
    Truncated {
        /// What was being decoded when the input ran out.
        field: &'static str,
        /// Bytes still available.
        available: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// A tag byte (e.g. an `Option` discriminant) held an invalid value.
    BadTag {
        /// What was being decoded.
        field: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A decoded value failed a semantic bound (e.g. a length that would
    /// overflow the remaining input).
    Invalid {
        /// What was being decoded.
        field: &'static str,
        /// Human-readable description of the violated bound.
        reason: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        field: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                field,
                available,
                needed,
            } => write!(
                f,
                "truncated input decoding {field}: needed {needed} bytes, {available} available"
            ),
            CodecError::BadTag { field, tag } => {
                write!(f, "invalid tag byte {tag:#04x} decoding {field}")
            }
            CodecError::Invalid { field, reason } => {
                write!(f, "invalid value decoding {field}: {reason}")
            }
            CodecError::BadUtf8 { field } => write!(f, "invalid UTF-8 decoding {field}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Folds the bytes written so far into `hash` and empties the
    /// encoder, keeping its buffer for the next piece of the stream.
    pub fn drain_into(&mut self, hash: &mut Fnv1a64) {
        hash.update(&self.buf);
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes raw bytes with a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes an `Option<bool>` as a tag byte (0 = none, 1 = false, 2 = true).
    pub fn put_opt_bool(&mut self, v: Option<bool>) {
        match v {
            None => self.put_u8(0),
            Some(false) => self.put_u8(1),
            Some(true) => self.put_u8(2),
        }
    }
}

/// Cursor-based binary decoder over a byte slice. Never panics.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// New decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Fails unless every input byte has been consumed.
    pub fn finish(&self, field: &'static str) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid {
                field,
                reason: "trailing bytes after final field",
            })
        }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                field,
                available: self.remaining(),
                needed: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, field)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, field)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `usize` encoded as a `u64`, rejecting values that cannot
    /// index the remaining input (cheap overflow/corruption guard).
    pub fn get_len(&mut self, field: &'static str) -> Result<usize, CodecError> {
        let v = self.get_u64(field)?;
        if v > self.buf.len() as u64 {
            return Err(CodecError::Invalid {
                field,
                reason: "length prefix exceeds input size",
            });
        }
        Ok(v as usize)
    }

    /// Reads a `usize` encoded as a `u64` with a caller-supplied bound.
    pub fn get_usize_bounded(
        &mut self,
        field: &'static str,
        max: usize,
    ) -> Result<usize, CodecError> {
        let v = self.get_u64(field)?;
        if v > max as u64 {
            return Err(CodecError::Invalid {
                field,
                reason: "value exceeds allowed bound",
            });
        }
        Ok(v as usize)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(field)?))
    }

    /// Reads a `bool` (must be exactly 0 or 1).
    pub fn get_bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { field, tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, field: &'static str) -> Result<String, CodecError> {
        let n = self.get_len(field)?;
        let b = self.take(n, field)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadUtf8 { field })
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self, field: &'static str) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len(field)?;
        Ok(self.take(n, field)?.to_vec())
    }

    /// Reads an `Option<bool>` (tag 0 = none, 1 = false, 2 = true).
    pub fn get_opt_bool(&mut self, field: &'static str) -> Result<Option<bool>, CodecError> {
        match self.get_u8(field)? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            tag => Err(CodecError::BadTag { field, tag }),
        }
    }
}

/// FNV-1a 64-bit hash — used both as the checkpoint checksum and for
/// input-compatibility digests. Stable across platforms and PRs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming [`fnv1a64`]: folding a byte stream in pieces gives the same
/// value as hashing it whole, so a digest over a large input needs no
/// buffer the size of that input.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of the empty stream.
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX);
        e.put_usize(42);
        e.put_f64(-0.0);
        e.put_f64(f64::NAN);
        e.put_bool(true);
        e.put_str("héllo");
        e.put_opt_bool(Some(false));
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8("a").unwrap(), 7);
        assert_eq!(d.get_u32("b").unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(d.get_len("d").unwrap(), 42);
        assert_eq!(d.get_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.get_f64("f").unwrap().is_nan());
        assert!(d.get_bool("g").unwrap());
        assert_eq!(d.get_str("h").unwrap(), "héllo");
        assert_eq!(d.get_opt_bool("k").unwrap(), Some(false));
        d.finish("end").unwrap();
    }

    #[test]
    fn truncation_is_typed_error() {
        let mut e = Encoder::new();
        e.put_u64(123);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            match d.get_u64("x") {
                Err(CodecError::Truncated { .. }) => {}
                other => panic!("expected truncation at cut {cut}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.get_bool("b"), Err(CodecError::BadTag { .. })));
        let mut d = Decoder::new(&[3]);
        assert!(matches!(
            d.get_opt_bool("o"),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_len("n"), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = Decoder::new(&[1, 2, 3]);
        assert!(matches!(d.finish("end"), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") is the published vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn draining_an_encoder_in_pieces_hashes_the_whole_stream() {
        let mut whole = Encoder::new();
        let mut enc = Encoder::new();
        let mut h = Fnv1a64::new();
        for k in 0..5u64 {
            whole.put_u64(k);
            whole.put_str("job");
            enc.put_u64(k);
            enc.put_str("job");
            enc.drain_into(&mut h);
            assert!(enc.is_empty());
        }
        assert_eq!(h.finish(), fnv1a64(&whole.into_bytes()));
    }
}
