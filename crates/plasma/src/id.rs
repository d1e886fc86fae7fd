//! Plasma object identifiers.
//!
//! 20-byte identifiers, wire- and size-compatible with Apache Arrow
//! Plasma's `ObjectID`. The distributed layer relies on these being unique
//! across *all* connected stores (the paper's "identifier uniqueness"
//! constraint), so besides random generation there is a deterministic
//! digest-based constructor for content-addressed workflows and tests.

use std::fmt;

/// Length of an object id in bytes (matches Arrow Plasma).
pub const OBJECT_ID_LEN: usize = 20;

/// A 20-byte Plasma object identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; OBJECT_ID_LEN]);

impl ObjectId {
    /// Construct from raw bytes.
    pub const fn from_bytes(bytes: [u8; OBJECT_ID_LEN]) -> Self {
        ObjectId(bytes)
    }

    /// A uniformly random id.
    pub fn random() -> Self {
        let mut bytes = [0u8; OBJECT_ID_LEN];
        rand::Rng::fill(&mut rand::thread_rng(), &mut bytes[..]);
        ObjectId(bytes)
    }

    /// Deterministic id derived from a name — an FNV-1a-based expansion,
    /// stable across runs and platforms. Handy for examples and tests; for
    /// adversarial settings prefer [`ObjectId::random`].
    pub fn from_name(name: &str) -> Self {
        let mut bytes = [0u8; OBJECT_ID_LEN];
        let h = crate::checksum::fnv1a64(name.as_bytes());
        for (i, chunk) in bytes.chunks_mut(8).enumerate() {
            // Re-mix per chunk so the 20 bytes are not just a repeated u64.
            let mut x = h.wrapping_add((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
            x ^= x >> 31;
            let le = x.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&le[..n]);
        }
        ObjectId(bytes)
    }

    /// Raw bytes.
    pub const fn as_bytes(&self) -> &[u8; OBJECT_ID_LEN] {
        &self.0
    }

    /// Lowercase hex representation.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(OBJECT_ID_LEN * 2);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("write to String");
        }
        s
    }

    /// Parse from 40 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != OBJECT_ID_LEN * 2 {
            return None;
        }
        let mut bytes = [0u8; OBJECT_ID_LEN];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes[i] = (hi * 16 + lo) as u8;
        }
        Some(ObjectId(bytes))
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.to_hex();
        write!(f, "ObjectId({}…{})", &hex[..8], &hex[32..])
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn random_ids_are_distinct() {
        let ids: HashSet<ObjectId> = (0..1000).map(|_| ObjectId::random()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn from_name_is_deterministic_and_distinct() {
        assert_eq!(ObjectId::from_name("a"), ObjectId::from_name("a"));
        assert_ne!(ObjectId::from_name("a"), ObjectId::from_name("b"));
        let ids: HashSet<ObjectId> = (0..1000)
            .map(|i| ObjectId::from_name(&format!("obj-{i}")))
            .collect();
        assert_eq!(ids.len(), 1000);
    }

    /// The bytes of two names' ids, recorded before `from_name` shared
    /// `checksum::fnv1a64`: every seeded name (and every `owned_id`)
    /// keeps its id.
    #[test]
    fn from_name_known_answers() {
        assert_eq!(
            ObjectId::from_name("object-a").0,
            [
                59, 173, 157, 102, 2, 15, 43, 241, 32, 150, 39, 146, 209, 132, 139, 238, 46, 209,
                137, 245
            ]
        );
        assert_eq!(
            ObjectId::from_name("demo/numbers").0,
            [
                4, 204, 56, 117, 240, 242, 223, 108, 1, 222, 111, 94, 85, 71, 158, 190, 233, 75,
                53, 218
            ]
        );
    }

    #[test]
    fn hex_roundtrip() {
        let id = ObjectId::random();
        let hex = id.to_hex();
        assert_eq!(hex.len(), 40);
        assert_eq!(ObjectId::from_hex(&hex), Some(id));
    }

    #[test]
    fn bad_hex_rejected() {
        assert_eq!(ObjectId::from_hex("zz"), None);
        assert_eq!(ObjectId::from_hex(&"0".repeat(39)), None);
        assert_eq!(ObjectId::from_hex(&"g".repeat(40)), None);
    }

    #[test]
    fn display_is_full_hex() {
        let id = ObjectId::from_bytes([0xAB; 20]);
        assert_eq!(id.to_string(), "ab".repeat(20));
    }
}
