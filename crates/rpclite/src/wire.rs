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

/// Bytes in each of [`crc32_sse42`]'s three interleaved lanes: a frame
/// of fewer than `3 * LANE` bytes takes the serial loop alone.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const LANE: usize = 1024;

/// "Advance the register over `n` zero bytes" for `n` = `LANE` and
/// `2 * LANE`, the maps that join [`crc32_sse42`]'s lanes. Each map is
/// linear in the register, so `[k][v]` holds its image of `v << 8k`
/// and the image of any register is the XOR of four lookups.
#[cfg(target_arch = "x86_64")]
const CRC32_LANE_SHIFTS: [[[u32; 256]; 4]; 2] =
    [crc32_zeros_table(LANE), crc32_zeros_table(2 * LANE)];

/// One of [`CRC32_LANE_SHIFTS`]: the map's image of each register bit,
/// found by folding `n` zero bytes with `CRC32_TABLES[0]`, XORed
/// together for each entry.
#[cfg(target_arch = "x86_64")]
const fn crc32_zeros_table(n: usize) -> [[u32; 256]; 4] {
    let mut bit_images = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut c = 1u32 << bit;
        let mut i = 0;
        while i < n {
            c = CRC32_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        bit_images[bit] = c;
        bit += 1;
    }
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut v = 0;
        while v < 256 {
            let mut bit = 0;
            while bit < 8 {
                if v >> bit & 1 != 0 {
                    table[k][v] ^= bit_images[8 * k + bit];
                }
                bit += 1;
            }
            v += 1;
        }
        k += 1;
    }
    table
}

/// Advance the register `c` over `n` zero bytes, `shift` being one of
/// [`CRC32_LANE_SHIFTS`].
#[cfg(target_arch = "x86_64")]
fn crc32_shift(shift: &[[u32; 256]; 4], c: u32) -> u32 {
    shift[0][(c & 0xFF) as usize]
        ^ shift[1][((c >> 8) & 0xFF) as usize]
        ^ shift[2][((c >> 16) & 0xFF) as usize]
        ^ shift[3][(c >> 24) as usize]
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
/// at a time, in three interleaved chains; elsewhere a slicing-by-8
/// table fold computes the same value.
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
///
/// The instruction takes three cycles but can start one a cycle, so a
/// block of `3 * LANE` bytes is folded as three independent chains: the
/// first continues the register, the other two start from 0, and the
/// block ends by joining them with [`CRC32_LANE_SHIFTS`] (the register
/// is linear in its input, so a lane's effect is its own fold, carried
/// over the zero bytes of the lanes after it). What is left, and a
/// frame shorter than a block, takes one serial chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    // The instruction zero-extends its 32-bit result, so the register
    // stays a `u64` from one word to the next.
    let mut c = 0xFFFF_FFFFu64;
    let mut blocks = data.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, rest) = rest.split_at(LANE);
        let (mut cb, mut cc) = (0, 0);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(rest.chunks_exact(8))
        {
            c = _mm_crc32_u64(c, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        c = u64::from(
            crc32_shift(&CRC32_LANE_SHIFTS[1], c as u32)
                ^ crc32_shift(&CRC32_LANE_SHIFTS[0], cb as u32)
                ^ cc as u32,
        );
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for bytes in &mut words {
        c = _mm_crc32_u64(c, word(bytes));
    }
    let mut c = c as u32;
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

    /// A byte pattern with no short period.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// The three folds agree at every length `k` whole three-lane
    /// blocks plus `r` bytes, around each seam a block or a lane has,
    /// at every alignment.
    #[test]
    fn crc32_paths_agree_at_every_lane_seam() {
        let block = 3 * LANE;
        let buf = pattern(4 * block + 8);
        for k in 0..4 {
            for r in [0, 1, 7, 8, 9, LANE - 1, LANE, LANE + 1, block - 1] {
                for start in 0..8 {
                    let [dispatched, table, bytewise] =
                        crc32_paths(&buf[start..start + k * block + r]);
                    assert_eq!(dispatched, bytewise, "k {k}, r {r}, start {start}");
                    assert_eq!(table, bytewise, "k {k}, r {r}, start {start}");
                }
            }
        }
    }

    /// Each shift table is what it says: advancing a register over `n`
    /// zero bytes, for sampled registers.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_lane_shifts_advance_over_zero_bytes() {
        let zeros = [0u8; 2 * LANE];
        let mut x = 0x9E37_79B9u32;
        let sampled = std::iter::from_fn(|| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            Some(x)
        });
        for c in [0, 1, 1 << 31, !0].into_iter().chain(sampled.take(64)) {
            for (shift, n) in CRC32_LANE_SHIFTS.iter().zip([LANE, 2 * LANE]) {
                let folded = crc32_fold_bytes(c, &zeros[..n]);
                assert_eq!(crc32_shift(shift, c), folded, "register {c:#x}, {n} bytes");
            }
        }
    }

    proptest::proptest! {
        /// The dispatched path (the instruction, where the CPU has it),
        /// the sliced table fold and the bytewise one are the same
        /// function, whatever the length and wherever the slice starts:
        /// up to two whole three-lane blocks and a lane, so a random
        /// length crosses several seams.
        #[test]
        fn crc32_sliced_and_bytewise_folds_agree(
            buf in proptest::collection::vec(
                proptest::prelude::any::<u8>(),
                0..2 * 3 * LANE + LANE + 8,
            ),
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
        let buf = pattern((256 << 10) + 7);
        for start in 0..8 {
            let [dispatched, table, bytewise] = crc32_paths(&buf[start..]);
            assert_eq!(dispatched, bytewise, "start {start}");
            assert_eq!(table, bytewise, "start {start}");
        }
    }
}
