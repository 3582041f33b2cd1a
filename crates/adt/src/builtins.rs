//! Built-in demonstration functions over large ADTs, including the paper's
//! running example:
//!
//! ```text
//! retrieve (clip(EMP.picture, "0,0,20,20"::rect)) where EMP.name = "Mike"
//! ```
//!
//! `clip` reads its gigabyte-class argument chunk by chunk and writes its
//! result into a temporary large object (§5) — never materializing either
//! in memory.

use crate::datum::{Datum, LoRef, Rect};
use crate::exec::ExecCtx;
use crate::funcs::FunctionRegistry;
use crate::{AdtError, Result};
use pglo_core::OpenMode;
use std::sync::Arc;

/// The on-object image format: 16-byte header (`PGIM`, width, height,
/// reserved) followed by `height` rows of `width` grayscale bytes.
pub mod image {
    use super::*;

    /// File magic of the image format.
    pub const MAGIC: &[u8; 4] = b"PGIM";
    /// Header size in bytes.
    pub const HEADER: u64 = 16;

    /// Encode an image header.
    pub fn header(w: u32, h: u32) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(MAGIC);
        out[4..8].copy_from_slice(&w.to_le_bytes());
        out[8..12].copy_from_slice(&h.to_le_bytes());
        out
    }

    /// Decode `(width, height)` from a header.
    pub fn dimensions(hdr: &[u8]) -> Result<(u32, u32)> {
        match hdr.first_chunk::<16>() {
            Some(&[m0, m1, m2, m3, w0, w1, w2, w3, h0, h1, h2, h3, ..])
                if [m0, m1, m2, m3] == *MAGIC =>
            {
                Ok((u32::from_le_bytes([w0, w1, w2, w3]), u32::from_le_bytes([h0, h1, h2, h3])))
            }
            _ => Err(AdtError::BadInput {
                type_name: "image".into(),
                text: String::new(),
                reason: "not a PGIM image".into(),
            }),
        }
    }

    /// Deterministic synthetic pixel: banded gradient (compressible, like
    /// real imagery).
    pub fn pixel(x: u32, y: u32, seed: u32) -> u8 {
        ((x / 16).wrapping_add(y).wrapping_add(seed) % 251) as u8
    }
}

/// The `image` input conversion routine (`image_in` in query-language DDL):
/// parses `"WxH[:seed]"` and synthesizes the pixels into a fresh temporary
/// large object.
pub fn image_input_fn() -> crate::types::InputFn {
    Arc::new(|ctx: &mut ExecCtx<'_>, text: &str| -> Result<Datum> {
        // External form: "WxH" or "WxH:seed".
        let (dims, seed) = match text.split_once(':') {
            Some((d, s)) => (
                d,
                s.parse::<u32>().map_err(|_| AdtError::BadInput {
                    type_name: "image".into(),
                    text: text.into(),
                    reason: "bad seed".into(),
                })?,
            ),
            None => (text, 0),
        };
        let (w, h) = dims
            .split_once('x')
            .and_then(|(w, h)| Some((w.parse::<u32>().ok()?, h.parse::<u32>().ok()?)))
            .ok_or_else(|| AdtError::BadInput {
                type_name: "image".into(),
                text: text.into(),
                reason: "expected WxH or WxH:seed".into(),
            })?;
        if w > 65536 || h > 65536 {
            return Err(AdtError::BadInput {
                type_name: "image".into(),
                text: text.into(),
                reason: "dimensions exceed 65536".into(),
            });
        }
        let lo = ctx.create_temp_large("image")?;
        let mut handle = ctx.open_large(&lo, OpenMode::ReadWrite)?;
        handle.write(&image::header(w, h)).map_err(crate::AdtError::Lo)?;
        let mut row = vec![0u8; w as usize];
        for y in 0..h {
            for (x, px) in row.iter_mut().enumerate() {
                *px = image::pixel(x as u32, y, seed);
            }
            handle.write(&row).map_err(crate::AdtError::Lo)?;
        }
        handle.close().map_err(crate::AdtError::Lo)?;
        Ok(Datum::Large(lo))
    })
}

/// The `image` output conversion routine (`image_out`): renders the
/// external form `image(WxH) lo:<id>`.
pub fn image_output_fn() -> crate::types::OutputFn {
    Arc::new(|ctx: &mut ExecCtx<'_>, datum: &Datum| -> Result<String> {
        let lo = expect_large(datum, "image")?;
        let mut handle = ctx.open_large(lo, OpenMode::ReadOnly)?;
        let mut hdr = [0u8; 16];
        handle.read_at(0, &mut hdr).map_err(crate::AdtError::Lo)?;
        let (w, h) = image::dimensions(&hdr)?;
        Ok(format!("image({w}x{h}) {}", lo.id))
    })
}

fn expect_large<'d>(datum: &'d Datum, type_name: &str) -> Result<&'d LoRef> {
    match datum {
        Datum::Large(l) if l.type_name == type_name => Ok(l),
        other => {
            Err(AdtError::TypeMismatch { expected: type_name.to_string(), got: other.type_name() })
        }
    }
}

fn expect_any_large(datum: &Datum) -> Result<&LoRef> {
    datum.as_large().ok_or_else(|| AdtError::TypeMismatch {
        expected: "a large object".into(),
        got: datum.type_name(),
    })
}

fn expect_rect(datum: &Datum) -> Result<Rect> {
    match datum {
        Datum::Rect(r) => Ok(*r),
        other => Err(AdtError::TypeMismatch { expected: "rect".into(), got: other.type_name() }),
    }
}

/// Register every built-in function and operator.
pub fn register_builtins(funcs: &FunctionRegistry) -> Result<()> {
    funcs.register(
        "lo_size",
        1,
        "lo_size(large) -> int8",
        Arc::new(|ctx, args| {
            let lo = expect_any_large(&args[0])?;
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            Ok(Datum::Int8(h.size().map_err(AdtError::Lo)? as i64))
        }),
    )?;

    funcs.register(
        "lo_checksum",
        1,
        "lo_checksum(large) -> int8",
        Arc::new(|ctx, args| {
            let lo = expect_any_large(&args[0])?;
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            // FNV-1a over the contents, streamed in 64 KB windows: the
            // function never holds the whole object (§3).
            let mut hash: u64 = 0xcbf29ce484222325;
            let mut buf = vec![0u8; 65536];
            let mut off = 0u64;
            loop {
                let n = h.read_at(off, &mut buf).map_err(AdtError::Lo)?;
                if n == 0 {
                    break;
                }
                for &b in &buf[..n] {
                    hash ^= b as u64;
                    hash = hash.wrapping_mul(0x100000001b3);
                }
                off += n as u64;
            }
            Ok(Datum::Int8(hash as i64))
        }),
    )?;

    funcs.register(
        "lo_substr",
        3,
        "lo_substr(large, int8 offset, int4 len) -> text",
        Arc::new(|ctx, args| {
            let lo = expect_any_large(&args[0])?;
            let off = args[1].as_i64().ok_or_else(|| AdtError::TypeMismatch {
                expected: "int8".into(),
                got: args[1].type_name(),
            })?;
            let len = args[2].as_i64().ok_or_else(|| AdtError::TypeMismatch {
                expected: "int4".into(),
                got: args[2].type_name(),
            })?;
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            let mut buf = vec![0u8; len.max(0) as usize];
            let n = h.read_at(off.max(0) as u64, &mut buf).map_err(AdtError::Lo)?;
            buf.truncate(n);
            Ok(Datum::Text(String::from_utf8_lossy(&buf).into_owned()))
        }),
    )?;

    funcs.register(
        "lo_grep",
        2,
        "lo_grep(large, text pattern) -> bool",
        Arc::new(|ctx, args| {
            let lo = expect_any_large(&args[0])?;
            let pattern = args[1].as_text().ok_or_else(|| AdtError::TypeMismatch {
                expected: "text".into(),
                got: args[1].type_name(),
            })?;
            if pattern.is_empty() {
                return Ok(Datum::Bool(true));
            }
            let needle = pattern.as_bytes();
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            // Sliding 64 KB windows overlapping by needle-1 bytes, so a
            // match spanning a window boundary is still seen.
            let window = 65536usize.max(needle.len() * 2);
            let mut buf = vec![0u8; window];
            let mut off = 0u64;
            loop {
                let n = h.read_at(off, &mut buf).map_err(AdtError::Lo)?;
                if n == 0 {
                    break;
                }
                if buf[..n].windows(needle.len()).any(|w| w == needle) {
                    return Ok(Datum::Bool(true));
                }
                if n < window {
                    break;
                }
                off += (n - (needle.len() - 1)) as u64;
            }
            Ok(Datum::Bool(false))
        }),
    )?;

    funcs.register(
        "clip",
        2,
        "clip(image, rect) -> image",
        Arc::new(|ctx, args| {
            let src_ref = expect_large(&args[0], "image")?;
            let rect = expect_rect(&args[1])?;
            let mut src = ctx.open_large(src_ref, OpenMode::ReadOnly)?;
            let mut hdr = [0u8; 16];
            src.read_at(0, &mut hdr).map_err(AdtError::Lo)?;
            let (w, h) = image::dimensions(&hdr)?;
            // Clamp the clip region to the image.
            let x0 = rect.x0.clamp(0, w as i32) as u32;
            let y0 = rect.y0.clamp(0, h as i32) as u32;
            let x1 = rect.x1.clamp(x0 as i32, w as i32) as u32;
            let y1 = rect.y1.clamp(y0 as i32, h as i32) as u32;
            let (cw, ch) = (x1 - x0, y1 - y0);
            let out_ref = ctx.create_temp_large("image")?;
            let mut dst = ctx.open_large(&out_ref, OpenMode::ReadWrite)?;
            dst.write(&image::header(cw, ch)).map_err(AdtError::Lo)?;
            // Row-wise chunked copy: at most one row in memory at a time.
            let mut row = vec![0u8; cw as usize];
            for y in y0..y1 {
                let src_off = image::HEADER + y as u64 * w as u64 + x0 as u64;
                src.read_at(src_off, &mut row).map_err(AdtError::Lo)?;
                dst.write(&row).map_err(AdtError::Lo)?;
            }
            dst.close().map_err(AdtError::Lo)?;
            Ok(Datum::Large(out_ref))
        }),
    )?;

    funcs.register(
        "image_width",
        1,
        "image_width(image) -> int4",
        Arc::new(|ctx, args| {
            let lo = expect_large(&args[0], "image")?;
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            let mut hdr = [0u8; 16];
            h.read_at(0, &mut hdr).map_err(AdtError::Lo)?;
            Ok(Datum::Int4(image::dimensions(&hdr)?.0 as i32))
        }),
    )?;

    funcs.register(
        "image_height",
        1,
        "image_height(image) -> int4",
        Arc::new(|ctx, args| {
            let lo = expect_large(&args[0], "image")?;
            let mut h = ctx.open_large(lo, OpenMode::ReadOnly)?;
            let mut hdr = [0u8; 16];
            h.read_at(0, &mut hdr).map_err(AdtError::Lo)?;
            Ok(Datum::Int4(image::dimensions(&hdr)?.1 as i32))
        }),
    )?;

    funcs.register(
        "rect_overlaps",
        2,
        "rect_overlaps(rect, rect) -> bool",
        Arc::new(|_, args| {
            let a = expect_rect(&args[0])?;
            let b = expect_rect(&args[1])?;
            Ok(Datum::Bool(a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1))
        }),
    )?;

    funcs.register(
        "rect_area",
        1,
        "rect_area(rect) -> int8",
        Arc::new(|_, args| {
            let r = expect_rect(&args[0])?;
            Ok(Datum::Int8(r.width() as i64 * r.height() as i64))
        }),
    )?;

    // The rect-overlap operator, POSTGRES-style.
    funcs.register_operator("&&", "rect_overlaps")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LargeTypeDef, TypeRegistry};
    use pglo_compress::CodecKind;
    use pglo_core::{LoKind, LoStore};
    use pglo_heap::StorageEnv;

    fn setup(
    ) -> (tempfile::TempDir, std::sync::Arc<StorageEnv>, LoStore, TypeRegistry, FunctionRegistry)
    {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(std::sync::Arc::clone(&env)).unwrap();
        let types = TypeRegistry::new();
        let def = LargeTypeDef { storage: LoKind::FChunk, codec: CodecKind::Rle, smgr: None };
        types.create_large_type("image", image_input_fn(), image_output_fn(), def).unwrap();
        let funcs = FunctionRegistry::new();
        register_builtins(&funcs).unwrap();
        (dir, env, store, types, funcs)
    }

    #[test]
    fn image_input_output_conversions() {
        let (_d, env, store, types, _funcs) = setup();
        let txn = env.begin();
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        let datum = types.input(&mut ctx, "image", "100x40:3").unwrap();
        let lo = datum.as_large().unwrap().clone();
        let text = types.output(&mut ctx, &datum).unwrap();
        assert!(text.starts_with("image(100x40)"), "{text}");
        // Contents: header + 100*40 pixels.
        let mut h = store.open(&txn, lo.id, OpenMode::ReadOnly).unwrap();
        assert_eq!(h.size().unwrap(), 16 + 4000);
        h.close().unwrap();
        store.gc_temps().unwrap();
        txn.commit();
    }

    #[test]
    fn clip_produces_exact_subimage() {
        let (_d, env, store, types, funcs) = setup();
        let txn = env.begin();
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        let img = types.input(&mut ctx, "image", "64x64:9").unwrap();
        let rect = Datum::Rect(Rect { x0: 8, y0: 16, x1: 24, y1: 48 });
        let clipped = funcs.invoke(&mut ctx, "clip", &[img, rect]).unwrap();
        let w = funcs.invoke(&mut ctx, "image_width", std::slice::from_ref(&clipped)).unwrap();
        let h = funcs.invoke(&mut ctx, "image_height", std::slice::from_ref(&clipped)).unwrap();
        assert_eq!(w, Datum::Int4(16));
        assert_eq!(h, Datum::Int4(32));
        // Pixel (0,0) of the clip is pixel (8,16) of the source.
        let lo = clipped.as_large().unwrap();
        let mut handle = store.open(&txn, lo.id, OpenMode::ReadOnly).unwrap();
        let mut px = [0u8; 1];
        handle.read_at(image::HEADER, &mut px).unwrap();
        assert_eq!(px[0], image::pixel(8, 16, 9));
        handle.close().unwrap();
        // Both image and clip result are temporaries awaiting GC.
        assert_eq!(store.temp_count(), 2);
        store.gc_temps().unwrap();
        assert_eq!(store.temp_count(), 0);
        txn.commit();
    }

    #[test]
    fn clip_clamps_out_of_bounds_rect() {
        let (_d, env, store, types, funcs) = setup();
        let txn = env.begin();
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        let img = types.input(&mut ctx, "image", "10x10").unwrap();
        let rect = Datum::Rect(Rect { x0: -5, y0: 5, x1: 100, y1: 100 });
        let clipped = funcs.invoke(&mut ctx, "clip", &[img, rect]).unwrap();
        assert_eq!(
            funcs.invoke(&mut ctx, "image_width", std::slice::from_ref(&clipped)).unwrap(),
            Datum::Int4(10)
        );
        assert_eq!(funcs.invoke(&mut ctx, "image_height", &[clipped]).unwrap(), Datum::Int4(5));
        store.gc_temps().unwrap();
        txn.commit();
    }

    #[test]
    fn lo_functions_stream_contents() {
        let (_d, env, store, types, funcs) = setup();
        let txn = env.begin();
        // A plain f-chunk object with known text.
        let id = store.create(&txn, &pglo_core::LoSpec::fchunk()).unwrap();
        {
            let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
            let mut blob = vec![b'.'; 100_000];
            blob.splice(70_000..70_000, b"needle-in-haystack".iter().copied());
            h.write(&blob).unwrap();
            h.close().unwrap();
        }
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        let lo = Datum::Large(LoRef { id, type_name: "blob".into() });
        assert_eq!(
            funcs.invoke(&mut ctx, "lo_size", std::slice::from_ref(&lo)).unwrap(),
            Datum::Int8(100_018)
        );
        assert_eq!(
            funcs
                .invoke(
                    &mut ctx,
                    "lo_grep",
                    &[lo.clone(), Datum::Text("needle-in-haystack".into())]
                )
                .unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            funcs.invoke(&mut ctx, "lo_grep", &[lo.clone(), Datum::Text("absent".into())]).unwrap(),
            Datum::Bool(false)
        );
        assert_eq!(
            funcs
                .invoke(&mut ctx, "lo_substr", &[lo.clone(), Datum::Int8(70_000), Datum::Int4(6)])
                .unwrap(),
            Datum::Text("needle".into())
        );
        // Checksum is deterministic.
        let c1 = funcs.invoke(&mut ctx, "lo_checksum", std::slice::from_ref(&lo)).unwrap();
        let c2 = funcs.invoke(&mut ctx, "lo_checksum", &[lo]).unwrap();
        assert_eq!(c1, c2);
        txn.commit();
    }

    #[test]
    fn operator_dispatch() {
        let (_d, env, store, types, funcs) = setup();
        let txn = env.begin();
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        let a = Datum::Rect(Rect { x0: 0, y0: 0, x1: 10, y1: 10 });
        let b = Datum::Rect(Rect { x0: 5, y0: 5, x1: 15, y1: 15 });
        let c = Datum::Rect(Rect { x0: 20, y0: 20, x1: 30, y1: 30 });
        assert_eq!(funcs.invoke_operator(&mut ctx, "&&", a.clone(), b).unwrap(), Datum::Bool(true));
        assert_eq!(funcs.invoke_operator(&mut ctx, "&&", a, c).unwrap(), Datum::Bool(false));
        assert!(matches!(
            funcs.invoke_operator(&mut ctx, "@@", Datum::Null, Datum::Null),
            Err(AdtError::UnknownOperator(_))
        ));
        txn.commit();
    }

    #[test]
    fn type_mismatches_reported() {
        let (_d, env, store, types, funcs) = setup();
        let txn = env.begin();
        let mut ctx = ExecCtx::new(&store, &txn, &types);
        assert!(matches!(
            funcs.invoke(&mut ctx, "clip", &[Datum::Int4(1), Datum::Int4(2)]),
            Err(AdtError::TypeMismatch { .. })
        ));
        assert!(matches!(
            funcs.invoke(&mut ctx, "nope", &[]),
            Err(AdtError::UnknownFunction(_, 0))
        ));
        txn.commit();
    }
}
