//! The workspace's one checksum: CRC-32 (IEEE 802.3, reflected), used by
//! the redo log's records, the WORM platter trailer and the page header.
//!
//! [`crc32`] picks between two routines that compute the same value:
//!
//! * inputs of 64 bytes or more, on an `x86_64` CPU with PCLMULQDQ and
//!   SSE4.1, fold 64 bytes per step with carry-less multiplies (Gopal et
//!   al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ";
//!   the constants are zlib's `crc32_simd`) — 0.34 us for an 8 KiB page
//!   where the table loop takes 5.2 us;
//! * everything else — shorter inputs (every log record header, every
//!   commit record), the sub-16-byte tail of a folded input, and any other
//!   CPU — takes the slice-by-8 table loop, so that loop runs on every
//!   record on every host.

/// The IEEE 802.3 generator polynomial, bit-reflected.
pub(crate) const POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` advances the register over `b` followed by
/// `k` zero bytes, so eight lookups consume eight input bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 of `bytes`, continuing from `seed`: start a message with 0 and
/// chain segments with `crc32(crc32(0, a), b) == crc32(0, a ++ b)`.
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = crc32_clmul(seed, bytes) {
        return crc;
    }
    crc32_table(seed, bytes)
}

/// CRC-32 of a page image with the 4 checksum bytes at `skip..skip + 4`
/// left out, so the value can be stored in them.
pub fn page_checksum(page: &[u8], skip: usize) -> u32 {
    crc32(crc32(0, &page[..skip]), &page[skip + 4..])
}

/// The portable routine.
fn crc32_table(seed: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !seed;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The fast routine; `None` when the input is shorter than one 64-byte
/// fold block or the CPU lacks the instructions. Holds the workspace's
/// one `unsafe` block; the sub-16-byte tail goes to the table loop.
#[cfg(target_arch = "x86_64")]
#[expect(unsafe_code, reason = "the carry-less multiply intrinsics are unsafe to call")]
fn crc32_clmul(seed: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 64
        || !(std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1"))
    {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: both features were detected above — all that calling a safe
    // `#[target_feature]` fn needs. `body` is >= 64 bytes and a multiple of
    // 16 (check + split); the kernel asserts that and loads through slices.
    let state = unsafe { fold_clmul(!seed, body) };
    Some(crc32_table(!state, tail))
}

/// Advance the raw (pre-inverted) CRC register `state` over `body`, which
/// must be at least 64 bytes and a multiple of 16: four 128-bit lanes each
/// fold 64 bytes ahead per step, then fold into one lane, take what is
/// left 16 bytes at a time, and reduce 128 -> 64 -> 32 bits (Barrett).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_clmul(state: u32, body: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    assert!(body.len() >= 64 && body.len().is_multiple_of(16), "fold_clmul: {} bytes", body.len());
    let load = |b: &[u8]| -> __m128i {
        let lo = i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = i64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi, lo)
    };
    // x * k (both halves) + next: moves a lane's value past the bytes
    // `next` starts at.
    let fold = |x: __m128i, k: __m128i, next: __m128i| -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };
    // x^(512+64), x^512 | x^(128+64), x^128 | x^64 (all mod P, reflected),
    // then P's Barrett pair: mu and P itself.
    let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
    let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);

    let (head, rest) = body.split_at(64);
    let mut x1 = _mm_xor_si128(load(&head[0..16]), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load(&head[16..32]);
    let mut x3 = load(&head[32..48]);
    let mut x4 = load(&head[48..64]);
    let mut blocks = rest.chunks_exact(64);
    for b in &mut blocks {
        x1 = fold(x1, k1k2, load(&b[0..16]));
        x2 = fold(x2, k1k2, load(&b[16..32]));
        x3 = fold(x3, k1k2, load(&b[32..48]));
        x4 = fold(x4, k1k2, load(&b[48..64]));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for b in blocks.remainder().chunks_exact(16) {
        x1 = fold(x1, k3k4, load(b));
    }
    let low32s = _mm_setr_epi32(!0, 0, !0, 0);
    let x = _mm_xor_si128(_mm_srli_si128::<8>(x1), _mm_clmulepi64_si128::<0x10>(x1, k3k4));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32s), k5),
        _mm_srli_si128::<4>(x),
    );
    let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32s), poly);
    let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32s), poly);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn reference_vectors() {
        for f in [crc32, crc32_table] {
            assert_eq!(f(0, b""), 0);
            assert_eq!(f(0, b"123456789"), 0xcbf4_3926);
        }
        // The table loop against the bit-serial definition.
        let bitwise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                }
            }
            !c
        };
        let data = pattern(1024);
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1024] {
            assert_eq!(crc32_table(0, &data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    /// Both routines called directly, so the table loop is covered on a
    /// host that folds; on one that cannot, the fast half skips (not fails).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_equals_table_at_every_length_and_alignment() {
        if crc32_clmul(0, &[0; 64]).is_none() {
            eprintln!("skipped: no PCLMULQDQ on this host");
            return;
        }
        let data = pattern(8209 + 16);
        for seed in [0, 0xdead_beef] {
            for align in 0..16 {
                for len in (0..=4200).chain([8192, 8208, 8209]) {
                    let s = &data[align..align + len];
                    let want = (len >= 64).then(|| crc32_table(seed, s));
                    assert_eq!(
                        crc32_clmul(seed, s),
                        want,
                        "seed {seed:#x} align {align} len {len}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn any_single_bit_flip_changes_the_fast_value() {
        let mut data = pattern(8208);
        let Some(clean) = crc32_clmul(0, &data) else {
            eprintln!("skipped: no PCLMULQDQ on this host");
            return;
        };
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32_clmul(0, &data), Some(clean), "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn page_checksum_is_the_crc_of_the_page_without_its_field() {
        let page = pattern(8192);
        let mut without = page.clone();
        without.drain(12..16);
        assert_eq!(page_checksum(&page, 12), crc32_table(0, &without));
        let mut other = page.clone();
        other[13] ^= 0xff; // inside the field
        assert_eq!(page_checksum(&other, 12), page_checksum(&page, 12));
    }

    proptest! {
        #[test]
        fn chaining_at_any_splits_equals_one_shot(
            data in prop::collection::vec(prop::num::u8::ANY, 0..3000),
            seed in prop::num::u32::ANY,
            cuts in prop::collection::vec(0usize..3000, 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for f in [crc32, crc32_table] {
                let mut crc = seed;
                let mut from = 0;
                for &cut in &cuts {
                    crc = f(crc, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(f(crc, &data[from..]), crc32_table(seed, &data));
            }
        }
    }
}
