//! The envelope's integrity checksum and its decode error.
//!
//! [`crc32`] (CRC-32C) guards every RPC frame: where gRPC leaves
//! checksums to TCP, computed by the kernel and the NIC, here the
//! application computes it, so it runs on the CPU's `crc32` instruction
//! where there is one. The envelope's fields are written with
//! [`ipc::Enc`] and read with [`ipc::Dec`], the codec every message in
//! the system uses; [`WireError`] is what reading a frame can fail with.

use ipc::CodecError;
use std::fmt;

/// Why an envelope frame did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame's fields did not decode (cut short, a byte too many,
    /// a message that is not UTF-8).
    Codec(CodecError),
    /// An integrity checksum did not match its payload (bytes were
    /// corrupted in transit).
    Checksum,
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::Checksum => write!(f, "integrity checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Lookup tables for [`crc32`]'s portable path (reflected Castagnoli
/// polynomial): `CRC32_TABLES[0]` advances the register by one byte,
/// `CRC32_TABLES[k]` by that same byte followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
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

/// CRC-32C (Castagnoli, as used by iSCSI, SCTP and ext4).
///
/// Guards RPC envelope frames against in-flight corruption: the
/// polynomial detects **every** single- and double-bit error (Hamming
/// distance 4 up to 2³¹ bits) and all burst errors up to 32 bits, in
/// frames far larger than any envelope, so a flipped bit surfaces as
/// [`WireError::Checksum`] instead of a silently mis-decoded message —
/// in the worst case, one delivered to the wrong `call_id`.
///
/// An envelope may carry a small object's payload and is checksummed
/// once on each side of the wire, so every byte passes through here.
/// Where the CPU has SSE4.2, its `crc32` instruction folds eight bytes
/// at a time; elsewhere a slicing-by-8 table fold computes the same
/// value.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` needs only SSE4.2, which the check above
        // has just found on this CPU.
        return unsafe { crc32_sse42(data) };
    }
    crc32_table(data)
}

/// [`crc32`] on SSE4.2's `crc32` instruction, which implements the
/// Castagnoli polynomial.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // The instruction zero-extends its 32-bit result.
        c = _mm_crc32_u64(u64::from(c), word) as u32;
    }
    for &byte in words.remainder() {
        c = _mm_crc32_u8(c, byte);
    }
    !c
}

/// [`crc32`] by table lookups, eight bytes a step (slicing-by-8).
fn crc32_table(data: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The three ways to compute [`crc32`]: as dispatched on this CPU,
    /// by the slicing-by-8 tables, and one table lookup per byte.
    fn crc32_paths(data: &[u8]) -> [u32; 3] {
        [crc32(data), crc32_table(data), !crc32_fold_bytes(!0, data)]
    }

    #[test]
    fn crc32_known_answers() {
        // The CRC-32C "check" value (RFC 3720, iSCSI).
        for crc in [crc32, crc32_table] {
            assert_eq!(crc(b"123456789"), 0xE306_9283);
            assert_eq!(crc(b""), 0);
        }
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
        /// The dispatched path (the instruction, where the CPU has it),
        /// the sliced table fold and the bytewise one are the same
        /// function, whatever the length and wherever the slice starts.
        #[test]
        fn crc32_sliced_and_bytewise_folds_agree(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096 + 8),
        ) {
            for start in 0..8.min(buf.len() + 1) {
                let [dispatched, table, bytewise] = crc32_paths(&buf[start..]);
                proptest::prop_assert_eq!(dispatched, bytewise);
                proptest::prop_assert_eq!(table, bytewise);
            }
        }
    }

    /// The same at the largest inlined put, 256 KiB, at every alignment.
    #[test]
    fn crc32_paths_agree_on_a_256_kib_payload() {
        let buf: Vec<u8> = (0..(256u32 << 10) + 7)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            let [dispatched, table, bytewise] = crc32_paths(&buf[start..]);
            assert_eq!(dispatched, bytewise, "start {start}");
            assert_eq!(table, bytewise, "start {start}");
        }
    }
}
