//! The stored form of a chunk or segment: its bytes as written, or run
//! through the object's codec when that makes them smaller, with a flag
//! byte that says which. Conversion happens per chunk or segment at
//! access time — just-in-time (§3) — and is priced on the simulated CPU.

use crate::Result;
use pglo_compress::{compress_vec, decompress_vec, CodecKind};
use pglo_heap::StorageEnv;
use std::borrow::Cow;

const FLAG_RAW: u8 = 0;
const FLAG_COMPRESSED: u8 = 1;

/// The flag and bytes to store for `plain`: `plain` itself, borrowed, when
/// it is kept as written. Input conversion is priced per byte compressed,
/// whether or not the result is kept.
pub(crate) fn encode<'a>(
    env: &StorageEnv,
    kind: CodecKind,
    plain: &'a [u8],
) -> (u8, Cow<'a, [u8]>) {
    if kind != CodecKind::None {
        let codec = kind.codec();
        env.sim().charge_cpu_per_byte(plain.len(), codec.instr_per_byte());
        let compressed = compress_vec(codec, plain);
        if compressed.len() < plain.len() {
            return (FLAG_COMPRESSED, Cow::Owned(compressed));
        }
    }
    (FLAG_RAW, Cow::Borrowed(plain))
}

/// The plain bytes behind `stored`: `stored` itself when it was kept as
/// written (borrowed in, borrowed out), else its decompression, priced per
/// uncompressed byte produced.
pub(crate) fn decode<'a>(
    env: &StorageEnv,
    kind: CodecKind,
    flag: u8,
    stored: Cow<'a, [u8]>,
) -> Result<Cow<'a, [u8]>> {
    if flag != FLAG_COMPRESSED {
        return Ok(stored);
    }
    let codec = kind.codec();
    let plain = decompress_vec(codec, &stored)?;
    env.sim().charge_cpu_per_byte(plain.len(), codec.instr_per_byte());
    Ok(Cow::Owned(plain))
}
