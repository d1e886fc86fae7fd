//! Property-based tests of the payload codec: arbitrary field sequences
//! round-trip, and the decoders reject (never panic on) corrupt input.

use ipc::{Dec, Enc};
use proptest::prelude::*;

/// A typed field for round-trip testing.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bool(bool),
    Bytes(Vec<u8>),
    Str(String),
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        any::<bool>().prop_map(Field::Bool),
        proptest::collection::vec(any::<u8>(), 0..128).prop_map(Field::Bytes),
        "\\PC{0,24}".prop_map(Field::Str),
    ]
}

proptest! {
    #[test]
    fn field_sequences_roundtrip(fields in proptest::collection::vec(field_strategy(), 0..24)) {
        let mut e = Enc::new();
        for f in &fields {
            match f {
                Field::U8(v) => { e.u8(*v); }
                Field::U32(v) => { e.u32(*v); }
                Field::U64(v) => { e.u64(*v); }
                Field::Bool(v) => { e.bool(*v); }
                Field::Bytes(v) => { e.bytes(v); }
                Field::Str(v) => { e.str(v); }
            }
        }
        let mut d = Dec::new(e.finish());
        for f in &fields {
            match f {
                Field::U8(v) => prop_assert_eq!(d.u8().unwrap(), *v),
                Field::U32(v) => prop_assert_eq!(d.u32().unwrap(), *v),
                Field::U64(v) => prop_assert_eq!(d.u64().unwrap(), *v),
                Field::Bool(v) => prop_assert_eq!(d.bool().unwrap(), *v),
                Field::Bytes(v) => prop_assert_eq!(&d.bytes().unwrap()[..], &v[..]),
                Field::Str(v) => prop_assert_eq!(&d.str().unwrap(), v),
            }
        }
        d.finish().unwrap();
    }

    #[test]
    fn truncated_payloads_error_not_panic(
        fields in proptest::collection::vec(field_strategy(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut e = Enc::new();
        for f in &fields {
            match f {
                Field::U8(v) => { e.u8(*v); }
                Field::U32(v) => { e.u32(*v); }
                Field::U64(v) => { e.u64(*v); }
                Field::Bool(v) => { e.bool(*v); }
                Field::Bytes(v) => { e.bytes(v); }
                Field::Str(v) => { e.str(v); }
            }
        }
        let full = e.finish();
        if full.is_empty() {
            return Ok(());
        }
        let cut_at = cut.index(full.len());
        let mut d = Dec::new(full.slice(..cut_at));
        // Consume until error or exhaustion; must never panic.
        while d.bytes().is_ok() {}
    }
}
