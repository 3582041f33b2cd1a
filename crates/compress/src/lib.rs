//! Compression codecs and the chunking-compression cost model.
//!
//! The paper evaluates two algorithms (§9.2): "one achieved 30 %
//! compression on 4096-byte frames, at an average cost of eight
//! instructions per byte. A second algorithm achieved 50 % compression,
//! consuming 20 instructions per byte." The identities of the algorithms
//! are never given — only their *ratio* and *CPU price* matter to the
//! results — so this crate provides two real, lossless codecs with exactly
//! those price tags:
//!
//! * [`RleCodec`] — byte-run encoding, cheap (8 instr/byte);
//! * [`Lz77Codec`] — a small sliding-window LZ77, pricier (20 instr/byte);
//!
//! plus [`synth`], a workload generator that synthesizes frames *calibrated*
//! so each codec hits the paper's target ratio (the harness reports the
//! ratio actually achieved).
//!
//! Charging: codecs are pure; callers charge the simulated CPU with
//! `sim.charge_cpu_per_byte(uncompressed_len, codec.instr_per_byte())`
//! around each call — just-in-time (de)compression (§3) then shows up in
//! elapsed time exactly where the paper says it should.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod lz77;
pub mod rle;
pub mod synth;

pub use lz77::Lz77Codec;
pub use rle::RleCodec;

/// Decompression failure: the stored bytes are not a valid stream for the
/// codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptData(pub &'static str);

impl std::fmt::Display for CorruptData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed data: {}", self.0)
    }
}

impl std::error::Error for CorruptData {}

/// A lossless compression codec.
pub trait Codec: Send + Sync {
    /// Short name (persisted in large-object metadata).
    fn name(&self) -> &'static str;

    /// The paper's CPU price, in simulated instructions per *uncompressed*
    /// byte processed.
    fn instr_per_byte(&self) -> u32;

    /// Compress `src`, appending to `dst`.
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>);

    /// Decompress `src`, appending to `dst`.
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), CorruptData>;
}

/// The identity codec: no compression, no CPU cost.
pub struct NullCodec;

impl Codec for NullCodec {
    fn name(&self) -> &'static str {
        "none"
    }

    fn instr_per_byte(&self) -> u32 {
        0
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        dst.extend_from_slice(src);
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), CorruptData> {
        dst.extend_from_slice(src);
        Ok(())
    }
}

/// Which codec a large ADT uses — the persisted form of the `create large
/// type (... compression = ...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// No conversion routine registered.
    None,
    /// The fast ~30 %-reduction algorithm.
    Rle,
    /// The tight ~50 %-reduction algorithm.
    Lz77,
}

static NULL: NullCodec = NullCodec;
static RLE: RleCodec = RleCodec;
static LZ77: Lz77Codec = Lz77Codec;

impl CodecKind {
    /// The codec implementation.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::None => &NULL,
            CodecKind::Rle => &RLE,
            CodecKind::Lz77 => &LZ77,
        }
    }

    /// Persisted name.
    pub fn as_str(self) -> &'static str {
        self.codec().name()
    }

    /// Parse a persisted or user-supplied name.
    pub fn parse(s: &str) -> Option<CodecKind> {
        match s {
            "none" => Some(CodecKind::None),
            "rle" => Some(CodecKind::Rle),
            "lz77" => Some(CodecKind::Lz77),
            _ => None,
        }
    }
}

/// Convenience: compress to a fresh buffer.
pub fn compress_vec(codec: &dyn Codec, src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    codec.compress(src, &mut out);
    out
}

/// Convenience: decompress to a fresh buffer.
pub fn decompress_vec(codec: &dyn Codec, src: &[u8]) -> Result<Vec<u8>, CorruptData> {
    let mut out = Vec::with_capacity(src.len() * 2 + 16);
    codec.decompress(src, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: CodecKind, data: &[u8]) {
        let codec = kind.codec();
        let compressed = compress_vec(codec, data);
        let restored = decompress_vec(codec, &compressed).unwrap();
        assert_eq!(restored, data, "codec {} must round-trip", codec.name());
    }

    #[test]
    fn all_codecs_roundtrip_varied_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![7; 10_000],
            (0..=255u8).cycle().take(5000).collect(),
            b"abcabcabcabcabc the quick brown fox jumps over the lazy dog".to_vec(),
            {
                // Pseudo-random bytes.
                let mut v = Vec::new();
                let mut s = 12345u64;
                for _ in 0..4096 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    v.push((s >> 33) as u8);
                }
                v
            },
        ];
        for kind in [CodecKind::None, CodecKind::Rle, CodecKind::Lz77] {
            for input in &inputs {
                roundtrip(kind, input);
            }
        }
    }

    #[test]
    fn paper_instruction_prices() {
        assert_eq!(CodecKind::Rle.codec().instr_per_byte(), 8);
        assert_eq!(CodecKind::Lz77.codec().instr_per_byte(), 20);
        assert_eq!(CodecKind::None.codec().instr_per_byte(), 0);
    }

    #[test]
    fn kind_parse_roundtrip() {
        for kind in [CodecKind::None, CodecKind::Rle, CodecKind::Lz77] {
            assert_eq!(CodecKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(CodecKind::parse("gzip"), None);
    }

    #[test]
    fn highly_repetitive_data_shrinks() {
        let data = vec![42u8; 4096];
        for kind in [CodecKind::Rle, CodecKind::Lz77] {
            let out = compress_vec(kind.codec(), &data);
            assert!(
                out.len() < data.len() / 10,
                "{} left {} bytes of 4096",
                kind.as_str(),
                out.len()
            );
        }
    }
}
