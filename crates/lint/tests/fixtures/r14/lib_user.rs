//! R14 fixture: library code of another crate (posing as
//! `crates/server/src/service.rs`).

use heap::never_called;

pub fn decode_all(bytes: Vec<u8>, codec: &heap::Codec) -> Vec<u8> {
    codec.check(Default::default());
    codec.sized::<4>();
    bytes.into_iter().map(Codec::decode).collect()
}
