//! Protocol-Buffers-style wire primitives.
//!
//! gRPC rides on protobuf encoding; this module reimplements the wire
//! format's building blocks — base-128 varints, ZigZag signed mapping, and
//! `(field, wire-type)` tags with length-delimited payloads — so the RPC
//! layer's envelope and the store-interconnect messages are encoded the way
//! the paper's stack (gRPC 1.38 + protobuf) encodes them.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Wire decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Varint ran past 10 bytes or the buffer ended mid-value.
    BadVarint,
    /// Buffer ended before a declared length.
    Truncated,
    /// Unknown wire type in a tag.
    BadWireType(u8),
    /// A required field was missing after decoding a message.
    MissingField(u32),
    /// An integrity checksum did not match its payload (bytes were
    /// corrupted in transit).
    Checksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadVarint => write!(f, "malformed varint"),
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::BadWireType(t) => write!(f, "unknown wire type {t}"),
            WireError::MissingField(n) => write!(f, "missing required field {n}"),
            WireError::Checksum => write!(f, "integrity checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Protobuf wire types (subset used here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint = 0,
    /// Length-delimited bytes.
    Len = 2,
}

impl WireType {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(WireType::Varint),
            2 => Ok(WireType::Len),
            other => Err(WireError::BadWireType(other)),
        }
    }
}

/// Lookup tables for [`crc32`] (reflected IEEE 802.3 polynomial):
/// `CRC32_TABLES[0]` advances the register by one byte, `CRC32_TABLES[k]`
/// by that same byte followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Advance the CRC register `c` over `data`, one table lookup per byte.
fn crc32_fold_bytes(mut c: u32, data: &[u8]) -> u32 {
    for &byte in data {
        c = CRC32_TABLES[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3, as used by Ethernet and zlib).
///
/// Guards RPC envelope frames against in-flight corruption: the
/// polynomial detects **every** single- and double-bit error (and all
/// burst errors up to 32 bits) in frames far larger than any envelope,
/// so a flipped bit surfaces as [`WireError::Checksum`] instead of a
/// silently mis-decoded message — in the worst case, one delivered to
/// the wrong `call_id`.
///
/// Every byte is folded; eight at a step (slicing-by-8) while at least
/// eight remain, because an envelope may carry a small object's payload
/// and is checksummed once on each side of the wire.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !crc32_fold_bytes(c, chunks.remainder())
}

/// Append a base-128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a base-128 varint.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(WireError::BadVarint);
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(WireError::BadVarint)
}

/// ZigZag-encode a signed value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// ZigZag-decode.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Message encoder: protobuf-style tagged fields.
#[derive(Debug, Default)]
pub struct MsgEnc {
    buf: BytesMut,
}

impl MsgEnc {
    /// New, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    fn tag(&mut self, field: u32, wt: WireType) {
        put_varint(&mut self.buf, u64::from(field) << 3 | wt as u64);
    }

    /// `field: uint64` (varint).
    pub fn uint(&mut self, field: u32, v: u64) -> &mut Self {
        self.tag(field, WireType::Varint);
        put_varint(&mut self.buf, v);
        self
    }

    /// `field: sint64` (zigzag varint).
    pub fn sint(&mut self, field: u32, v: i64) -> &mut Self {
        self.uint(field, zigzag(v))
    }

    /// `field: bytes` (length-delimited).
    pub fn bytes(&mut self, field: u32, v: &[u8]) -> &mut Self {
        self.tag(field, WireType::Len);
        put_varint(&mut self.buf, v.len() as u64);
        self.buf.put_slice(v);
        self
    }

    /// `field: string`.
    pub fn string(&mut self, field: u32, v: &str) -> &mut Self {
        self.bytes(field, v.as_bytes())
    }

    /// Nested message.
    pub fn message(&mut self, field: u32, inner: MsgEnc) -> &mut Self {
        self.bytes(field, &inner.buf)
    }

    /// Freeze the encoded message into immutable bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// One decoded field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A varint-encoded integer.
    Uint(u64),
    /// A length-delimited byte string.
    Bytes(Bytes),
}

impl FieldValue {
    /// The integer value, or `None` for a bytes field.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            FieldValue::Uint(v) => Some(*v),
            FieldValue::Bytes(_) => None,
        }
    }

    /// The byte string, or `None` for an integer field.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            FieldValue::Bytes(b) => Some(b),
            FieldValue::Uint(_) => None,
        }
    }
}

/// Message decoder: iterate `(field, value)` pairs, or collect into a
/// field-indexed view with required/optional accessors.
#[derive(Debug)]
pub struct MsgDec {
    buf: Bytes,
}

impl MsgDec {
    /// Decoder over an encoded message body.
    pub fn new(buf: Bytes) -> Self {
        MsgDec { buf }
    }

    /// Read the next field, or `None` at end of message.
    pub fn next_field(&mut self) -> Result<Option<(u32, FieldValue)>, WireError> {
        if !self.buf.has_remaining() {
            return Ok(None);
        }
        let key = get_varint(&mut self.buf)?;
        let field = u32::try_from(key >> 3).map_err(|_| WireError::BadVarint)?;
        let wt = WireType::from_u8((key & 0x7) as u8)?;
        let value = match wt {
            WireType::Varint => FieldValue::Uint(get_varint(&mut self.buf)?),
            WireType::Len => {
                let len = get_varint(&mut self.buf)?;
                let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
                if self.buf.len() < len {
                    return Err(WireError::Truncated);
                }
                FieldValue::Bytes(self.buf.split_to(len))
            }
        };
        Ok(Some((field, value)))
    }

    /// Decode all fields into an indexed view (later duplicates win, as in
    /// protobuf's last-one-wins rule; repeated fields are accumulated).
    pub fn collect(mut self) -> Result<Fields, WireError> {
        let mut fields: Vec<(u32, FieldValue)> = Vec::new();
        while let Some((f, v)) = self.next_field()? {
            fields.push((f, v));
        }
        Ok(Fields { fields })
    }
}

/// Field-indexed view of a decoded message.
#[derive(Debug)]
pub struct Fields {
    fields: Vec<(u32, FieldValue)>,
}

impl Fields {
    /// Last occurrence of `field`, if present.
    pub fn get(&self, field: u32) -> Option<&FieldValue> {
        self.fields
            .iter()
            .rev()
            .find(|(f, _)| *f == field)
            .map(|(_, v)| v)
    }

    /// All occurrences of `field`, in order (repeated fields).
    pub fn get_all(&self, field: u32) -> impl Iterator<Item = &FieldValue> {
        self.fields
            .iter()
            .filter(move |(f, _)| *f == field)
            .map(|(_, v)| v)
    }

    /// Required `uint64` field.
    pub fn uint(&self, field: u32) -> Result<u64, WireError> {
        self.get(field)
            .and_then(FieldValue::as_uint)
            .ok_or(WireError::MissingField(field))
    }

    /// Optional `uint64` field with a default.
    pub fn uint_or(&self, field: u32, default: u64) -> u64 {
        self.get(field)
            .and_then(FieldValue::as_uint)
            .unwrap_or(default)
    }

    /// Required `sint64` (zigzag) field.
    pub fn sint(&self, field: u32) -> Result<i64, WireError> {
        self.uint(field).map(unzigzag)
    }

    /// Required `bytes` field.
    pub fn bytes(&self, field: u32) -> Result<Bytes, WireError> {
        self.get(field)
            .and_then(FieldValue::as_bytes)
            .cloned()
            .ok_or(WireError::MissingField(field))
    }

    /// Required UTF-8 `string` field.
    pub fn string(&self, field: u32) -> Result<String, WireError> {
        let b = self.bytes(field)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::MissingField(field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answers() {
        // The CRC-32 "check" value from the IEEE 802.3 specification.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    proptest::proptest! {
        /// The eight-bytes-a-step fold and the bytewise one are the same
        /// function, whatever the length and wherever the slice starts.
        #[test]
        fn crc32_sliced_and_bytewise_folds_agree(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096 + 8),
        ) {
            for start in 0..8.min(buf.len() + 1) {
                let data = &buf[start..];
                proptest::prop_assert_eq!(crc32(data), !crc32_fold_bytes(!0, data));
            }
        }
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(b.is_empty());
        }
    }

    #[test]
    fn varint_canonical_lengths() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_overlong_rejected() {
        let mut b = Bytes::from_static(&[0x80u8; 11]);
        assert_eq!(get_varint(&mut b).unwrap_err(), WireError::BadVarint);
        let mut b = Bytes::from_static(&[0x80]);
        assert_eq!(get_varint(&mut b).unwrap_err(), WireError::BadVarint);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, i64::MIN, i64::MAX, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn message_roundtrip() {
        let mut e = MsgEnc::new();
        e.uint(1, 42).sint(2, -7).bytes(3, b"abc").string(4, "hi");
        let fields = MsgDec::new(e.finish()).collect().unwrap();
        assert_eq!(fields.uint(1).unwrap(), 42);
        assert_eq!(fields.sint(2).unwrap(), -7);
        assert_eq!(&fields.bytes(3).unwrap()[..], b"abc");
        assert_eq!(fields.string(4).unwrap(), "hi");
        assert_eq!(fields.uint(9).unwrap_err(), WireError::MissingField(9));
        assert_eq!(fields.uint_or(9, 5), 5);
    }

    #[test]
    fn repeated_fields_accumulate() {
        let mut e = MsgEnc::new();
        e.bytes(1, b"x").bytes(1, b"y").bytes(1, b"z");
        let fields = MsgDec::new(e.finish()).collect().unwrap();
        let all: Vec<&[u8]> = fields
            .get_all(1)
            .map(|v| &v.as_bytes().unwrap()[..])
            .collect();
        assert_eq!(all, vec![&b"x"[..], b"y", b"z"]);
        // Scalar accessor sees the last occurrence.
        assert_eq!(&fields.bytes(1).unwrap()[..], b"z");
    }

    #[test]
    fn nested_messages() {
        let mut inner = MsgEnc::new();
        inner.uint(1, 99);
        let mut outer = MsgEnc::new();
        outer.message(5, inner);
        let fields = MsgDec::new(outer.finish()).collect().unwrap();
        let nested = MsgDec::new(fields.bytes(5).unwrap()).collect().unwrap();
        assert_eq!(nested.uint(1).unwrap(), 99);
    }

    #[test]
    fn truncated_length_delimited_rejected() {
        let mut e = MsgEnc::new();
        e.bytes(1, b"hello world");
        let full = e.finish();
        let cut = full.slice(0..full.len() - 3);
        assert_eq!(
            MsgDec::new(cut).collect().unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn unknown_wire_type_rejected() {
        // tag for field 1 with wire type 5 (fixed32 — unsupported here).
        let raw = Bytes::from_static(&[0x0D, 0, 0, 0, 0]);
        assert_eq!(
            MsgDec::new(raw).collect().unwrap_err(),
            WireError::BadWireType(5)
        );
    }
}
