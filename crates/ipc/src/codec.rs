//! Payload encoding helpers.
//!
//! Fixed-width little-endian primitives plus length-prefixed byte strings,
//! with checked decoding — the one codec the Plasma IPC protocol, the RPC
//! envelope and the store-to-store messages are all written in. A decoder
//! reads its fields in order and ends in [`Dec::finish`], so a message
//! cut short or carrying a byte more is an error, never a default.
//!
//! Every message states its encoded length before a byte of it is
//! written ([`Encode`]), so it is written once, into a buffer allocated
//! at its final size: its own ([`encode`]) or the frame's that carries
//! it.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Decoding error: the payload is shorter than the field being read, or a
/// length prefix is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Needed `needed` more bytes but only `available` remain.
    Truncated { needed: usize, available: usize },
    /// A declared length exceeds the remaining payload.
    BadLength { declared: u64, available: usize },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// A field had an invalid value for its domain.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated payload: need {needed} bytes, have {available}"
                )
            }
            CodecError::BadLength {
                declared,
                available,
            } => {
                write!(
                    f,
                    "bad length prefix: {declared} declared, {available} available"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value written with [`Enc`] whose encoded length is known before any
/// of it is written.
pub trait Encode {
    /// The bytes [`Encode::encode_to`] writes.
    fn encoded_len(&self) -> usize;

    /// Write the value.
    fn encode_to(&self, e: &mut Enc);
}

/// One message: fixed-width fields written in order by
/// [`Encode::encode_to`] and read back in the same order by `get`, their
/// length stated before any is written, so a message is written once,
/// into a buffer of its final size: its own ([`Message::encode`]) or that
/// of the frame that carries it.
pub trait Message: Encode + Sized {
    /// Read the fields [`Encode::encode_to`] wrote.
    fn get(d: &mut Dec) -> Result<Self, CodecError>;

    /// Serialize to wire bytes, in one buffer of exactly their length.
    fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Parse from wire bytes: every field, and not a byte more.
    fn decode(b: Bytes) -> Result<Self, CodecError> {
        let mut d = Dec::new(b);
        let message = Self::get(&mut d)?;
        d.finish()?;
        Ok(message)
    }
}

/// `value`'s bytes, written into one buffer of exactly their length.
pub fn encode<T: Encode + ?Sized>(value: &T) -> Bytes {
    let mut e = Enc::with_capacity(value.encoded_len());
    value.encode_to(&mut e);
    debug_assert_eq!(
        e.len(),
        value.encoded_len(),
        "a stated length is the written one"
    );
    e.finish()
}

/// No bytes: a request with an empty body.
impl Encode for () {
    fn encoded_len(&self) -> usize {
        0
    }

    fn encode_to(&self, _: &mut Enc) {}
}

/// Raw bytes, written as they are (no prefix).
impl Encode for [u8] {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        e.fixed(self);
    }
}

impl Encode for Bytes {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        e.fixed(self);
    }
}

impl Encode for &[u8] {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_to(&self, e: &mut Enc) {
        e.fixed(self);
    }
}

impl Encode for &dyn Encode {
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }

    fn encode_to(&self, e: &mut Enc) {
        (**self).encode_to(e)
    }
}

/// Parts written back to back: a header, then a body.
impl<T: Encode> Encode for [T] {
    fn encoded_len(&self) -> usize {
        self.iter().map(Encode::encoded_len).sum()
    }

    fn encode_to(&self, e: &mut Enc) {
        for part in self {
            part.encode_to(e);
        }
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encoded_len(&self) -> usize {
        self[..].encoded_len()
    }

    fn encode_to(&self, e: &mut Enc) {
        self[..].encode_to(e)
    }
}

/// Encoder over a buffer sized up front ([`Enc::with_capacity`]); a write
/// past that size moves the bytes into a larger one.
#[derive(Debug, Default)]
pub struct Enc {
    buf: BytesMut,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_slice(&v.to_le_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.put_slice(v);
        self
    }

    /// Fixed-width byte array (no prefix).
    pub fn fixed(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// The bytes written so far, still writable: for a caller that fills
    /// in a field it reserved (a checksum) once the rest is written.
    pub fn into_buf(self) -> BytesMut {
        self.buf
    }
}

/// Checked decoder over a payload. A clone reads on from where this one
/// is, over the same bytes.
#[derive(Debug, Clone)]
pub struct Dec {
    buf: Bytes,
}

impl Dec {
    pub fn new(buf: Bytes) -> Self {
        Dec { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.buf.len(),
            });
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Length-prefixed byte string (zero-copy slice of the payload).
    pub fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u64()?;
        let len_usize = usize::try_from(len).map_err(|_| CodecError::BadLength {
            declared: len,
            available: self.buf.len(),
        })?;
        if self.buf.len() < len_usize {
            return Err(CodecError::BadLength {
                declared: len,
                available: self.buf.len(),
            });
        }
        Ok(self.buf.split_to(len_usize))
    }

    /// Fixed-width byte array.
    pub fn fixed<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.need(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[..N]);
        self.buf.advance(N);
        Ok(out)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }

    /// The next `n` bytes (zero-copy slice of the payload): a field
    /// whose length the fields before it state, or the rest of the
    /// payload.
    pub fn take(&mut self, n: usize) -> Result<Bytes, CodecError> {
        self.need(n)?;
        Ok(self.buf.split_to(n))
    }

    /// Assert the payload is fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut e = Enc::new();
        e.u8(7)
            .u16(0xBEEF)
            .u32(0xDEADBEEF)
            .u64(u64::MAX)
            .bool(true)
            .bytes(b"blob")
            .fixed(&[1, 2, 3])
            .str("héllo");
        let mut d = Dec::new(e.finish());
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert!(d.bool().unwrap());
        assert_eq!(&d.bytes().unwrap()[..], b"blob");
        assert_eq!(d.fixed::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn take_reads_an_unprefixed_field() {
        let mut e = Enc::new();
        e.u32(1).fixed(b"tail");
        let mut d = Dec::new(e.finish());
        d.u32().unwrap();
        assert!(matches!(d.take(5), Err(CodecError::Truncated { .. })));
        assert_eq!(&d.take(4).unwrap()[..], b"tail");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.u64(42);
        let payload = e.finish();
        let mut d = Dec::new(payload.slice(0..4));
        assert!(matches!(d.u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn bad_length_prefix_detected() {
        let mut e = Enc::new();
        e.u64(1000); // claims 1000 bytes follow
        let mut d = Dec::new(e.finish());
        assert!(matches!(d.bytes(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u32(1).u32(2);
        let mut d = Dec::new(e.finish());
        d.u32().unwrap();
        assert_eq!(d.finish().unwrap_err(), CodecError::TrailingBytes(4));
    }

    #[test]
    fn invalid_bool_detected() {
        let mut e = Enc::new();
        e.u8(2);
        let mut d = Dec::new(e.finish());
        assert_eq!(d.bool().unwrap_err(), CodecError::Invalid("bool"));
    }

    #[test]
    fn empty_bytes_roundtrip() {
        let mut e = Enc::new();
        e.bytes(b"");
        let mut d = Dec::new(e.finish());
        assert!(d.bytes().unwrap().is_empty());
        d.finish().unwrap();
    }
}
