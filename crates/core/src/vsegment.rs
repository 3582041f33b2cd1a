//! §6.4 — variable-length segments.
//!
//! "A segment index is constructed for each large object with the following
//! composition: `segment_ndx (locn, compressed_len, byte_pointer)`. The
//! contents of a segment are constructed by compressing the variable length
//! data generated by the user … These variable length objects are
//! concatenated end-to-end and stored as a large ADT, chunked into 8K
//! blocks using the fixed-block storage scheme f-chunk described above."
//!
//! Consequences the paper calls out, all reproduced here:
//!
//! * the unit of compression is the *segment* (one user write), so **any**
//!   reduction shows up as space savings — unlike f-chunk's
//!   half-a-page-or-nothing geometry;
//! * each read pays an extra hop — B-tree → segment-index record → byte
//!   store — "this increases the average number of disk accesses required
//!   per data block read" (the ~25 % Figure 2 slowdown);
//! * the segment index lives in a no-overwrite heap, so "time travel is
//!   supported for the index", and segment bytes are never overwritten, so
//!   old object versions remain readable.

use crate::fchunk::FChunkBackend;
use crate::handle::LoBackend;
use crate::meta::LoMeta;
use crate::{stored_form, LoError, LoId, Result, MAX_SEGMENT};
use pglo_btree::{keys::u64_key, keys::u64_prefix, BTree, ScanStart};
use pglo_compress::CodecKind;
use pglo_heap::{AccessHint, Heap, StorageEnv};
use pglo_txn::{Txn, Visibility};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A decoded segment-index record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegRecord {
    /// Logical byte offset this segment covers from.
    locn: u64,
    /// Uncompressed length.
    len: u32,
    /// Stored (possibly compressed) length in the byte store.
    clen: u32,
    /// Offset of the stored bytes in the byte store.
    ptr: u64,
    /// The layout's creation counter, written as `ptr` (no counter is
    /// kept): reads order segments by `ptr`.
    seq: u64,
    flag: u8,
}

const SEG_RECORD_LEN: usize = 33;

impl SegRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEG_RECORD_LEN);
        out.extend_from_slice(&self.locn.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.clen.to_le_bytes());
        out.extend_from_slice(&self.ptr.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.flag);
        out
    }

    fn decode(data: &[u8]) -> Result<SegRecord> {
        fn bytes<const N: usize>(data: &[u8], at: usize) -> Result<[u8; N]> {
            let short = || LoError::Meta("segment-index record too short".into());
            data.get(at..).and_then(<[u8]>::first_chunk).copied().ok_or_else(short)
        }
        let u64_at = |at| bytes(data, at).map(u64::from_le_bytes);
        let u32_at = |at| bytes(data, at).map(u32::from_le_bytes);
        Ok(SegRecord {
            locn: u64_at(0)?,
            len: u32_at(8)?,
            clen: u32_at(12)?,
            ptr: u64_at(16)?,
            seq: u64_at(24)?,
            flag: bytes::<1>(data, 32)?[0],
        })
    }

    fn end(&self) -> u64 {
        self.locn + self.len as u64
    }
}

/// The v-segment backend.
pub struct VSegBackend {
    env: Arc<StorageEnv>,
    id: LoId,
    seg_heap: Heap,
    seg_index: BTree,
    /// The byte store: an internal f-chunk object with no chunk-level codec
    /// (compression already happened per segment). Its end is where the
    /// next segment's bytes go.
    store: FChunkBackend,
    codec: CodecKind,
    vis: Visibility,
    /// The largest end of a segment `vis` sees, derived when first
    /// needed and moved on by this backend's own writes.
    size: Option<u64>,
    /// Last decompressed segment, keyed by its byte-store pointer.
    seg_cache: Option<(u64, Vec<u8>)>,
}

impl VSegBackend {
    /// Open the v-segment object of `meta` under `vis`. Nothing is read
    /// until an operation needs it.
    pub(crate) fn open(env: Arc<StorageEnv>, meta: &LoMeta, vis: Visibility) -> Self {
        Self {
            store: FChunkBackend::open(Arc::clone(&env), meta, CodecKind::None, vis.clone()),
            seg_heap: Heap::open_oid(&env, meta.seg_rel, meta.smgr),
            seg_index: BTree::open_oid(&env, meta.seg_idx_rel, meta.smgr),
            env,
            id: meta.id,
            codec: meta.codec,
            vis,
            size: None,
            seg_cache: None,
        }
    }

    /// Visible segment records overlapping `[from, to)`, in creation
    /// order: by byte-store pointer, which rises with it among the
    /// segments one snapshot sees, so a later one shadows an earlier one
    /// where they overlap.
    fn overlapping_segments(&self, from: u64, to: u64) -> Result<Vec<SegRecord>> {
        // Probe back by the longest segment there can be: a covering
        // segment cannot start earlier.
        let probe = from.saturating_sub(MAX_SEGMENT as u64);
        let mut scan = self.seg_index.scan(ScanStart::AtOrAfter(u64_key(probe).to_vec()))?;
        let mut found = Vec::new();
        while let Some((key, tid)) = scan.next_entry()? {
            let short_key = || LoError::Meta("segment index key too short".into());
            if u64_prefix(&key).ok_or_else(short_key)? >= to {
                break;
            }
            if let Some(payload) = self.seg_heap.fetch(tid, &self.vis)? {
                let rec = SegRecord::decode(&payload)?;
                if rec.end() > from && rec.locn < to {
                    found.push(rec);
                }
            }
        }
        found.sort_by_key(|r| r.ptr);
        Ok(found)
    }

    /// Plain bytes of a segment, via the handle's one-segment cache.
    fn segment_bytes(&mut self, rec: &SegRecord) -> Result<Vec<u8>> {
        if let Some((ptr, bytes)) = &self.seg_cache {
            if *ptr == rec.ptr {
                return Ok(bytes.clone());
            }
        }
        let mut stored = vec![0u8; rec.clen as usize];
        let n = self.store.read_at(rec.ptr, &mut stored)?;
        if n != stored.len() {
            return Err(LoError::Meta(format!(
                "{}: byte store truncated: wanted {} bytes at {}, got {n}",
                self.id, rec.clen, rec.ptr
            )));
        }
        let plain =
            stored_form::decode(&self.env, self.codec, rec.flag, stored.into())?.into_owned();
        if plain.len() != rec.len as usize {
            return Err(LoError::Meta(format!(
                "{}: segment at {} decompressed to {} bytes, index says {}",
                self.id,
                rec.locn,
                plain.len(),
                rec.len
            )));
        }
        self.seg_cache = Some((rec.ptr, plain.clone()));
        Ok(plain)
    }

    /// Append one segment as `txn`: compress, append bytes to the store,
    /// index it.
    fn append_segment(&mut self, txn: &Txn, locn: u64, plain: &[u8]) -> Result<()> {
        let (flag, stored) = stored_form::encode(&self.env, self.codec, plain);
        // The store's end: past every segment this snapshot sees, so
        // pointers rise with creation order among them.
        let ptr = self.store.size()?;
        self.store.write_at(txn, ptr, &stored)?;
        let (len, clen) = (plain.len() as u32, stored.len() as u32);
        let rec = SegRecord { locn, len, clen, ptr, seq: ptr, flag };
        // Exact replacement (same locn, same length — the benchmark's
        // "replace frame" pattern) supersedes the old record so current
        // readers see one segment; the old version stays for time travel.
        let mut replaced = None;
        let key = u64_key(locn);
        for version in
            self.seg_index.visible(&self.seg_heap, &key, &self.vis, AccessHint::Random)?
        {
            let (tid, payload) = version?;
            if SegRecord::decode(&payload)?.len == rec.len {
                replaced = Some(tid);
                break;
            }
        }
        let new_tid = match replaced {
            Some(old_tid) => self.seg_heap.update(txn, old_tid, &rec.encode())?,
            None => self.seg_heap.insert(txn, &rec.encode())?,
        };
        self.seg_index.insert(&u64_key(locn), new_tid)?;
        Ok(())
    }
}

impl LoBackend for VSegBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let size = self.size()?;
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let out = &mut buf[..want];
        out.fill(0); // unwritten (sparse) regions read as zeros
        let to = offset + want as u64;
        let segments = self.overlapping_segments(offset, to)?;
        for rec in &segments {
            let plain = self.segment_bytes(rec)?;
            let copy_from = offset.max(rec.locn);
            let copy_to = to.min(rec.end());
            let src = (copy_from - rec.locn) as usize;
            let dst = (copy_from - offset) as usize;
            let n = (copy_to - copy_from) as usize;
            out[dst..dst + n].copy_from_slice(&plain[src..src + n]);
        }
        obs::counter!("lo.vsegment.read.bytes").add(want as u64);
        Ok(want)
    }

    fn write_at(&mut self, txn: &Txn, offset: u64, data: &[u8]) -> Result<()> {
        obs::counter!("lo.vsegment.write.bytes").add(data.len() as u64);
        let mut done = 0usize;
        while done < data.len() {
            let span = (data.len() - done).min(MAX_SEGMENT);
            self.append_segment(txn, offset + done as u64, &data[done..done + span])?;
            done += span;
        }
        // Not yet derived: the next derivation sees these segments.
        if let Some(size) = &mut self.size {
            *size = (*size).max(offset + data.len() as u64);
        }
        Ok(())
    }

    /// The object's end: as this backend last knew it, or else the
    /// largest end of a segment `vis` sees, 0 with none, from a reverse
    /// walk down the segment index that stops once a segment starts too
    /// far below the best end for any at or before it to pass that end.
    fn size(&mut self) -> Result<u64> {
        if let Some(size) = self.size {
            self.seg_heap.nblocks()?; // an unlink under this open shows here
            return Ok(size);
        }
        let mut end = 0u64;
        let hi = u64_key(u64::MAX);
        self.seg_index.visible_rev(&self.seg_heap, &hi, &self.vis, |_, _, payload| {
            let rec = SegRecord::decode(payload)?;
            if rec.locn.saturating_add(MAX_SEGMENT as u64) < end {
                return Ok(ControlFlow::Break(()));
            }
            end = end.max(rec.end());
            Ok::<_, LoError>(ControlFlow::Continue(()))
        })?;
        Ok(*self.size.insert(end))
    }

    fn flush(&mut self, txn: Option<&Txn>) -> Result<()> {
        // Every write grew the store, which counts as the extension.
        self.store.flush(txn)
    }

    fn forget_bytes(&mut self) {
        self.seg_cache = None;
        self.store.forget_bytes();
    }
}
