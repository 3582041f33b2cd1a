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
use crate::meta::{lo_class_name, LoMeta};
use crate::{stored_form, LoError, LoId, Result, MAX_SEGMENT};
use pglo_btree::{keys::u64_key, keys::u64_prefix, BTree, ScanStart};
use pglo_compress::CodecKind;
use pglo_heap::{AccessHint, Heap, StorageEnv};
use pglo_txn::{Txn, Visibility};
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
    /// Creation order; later segments shadow earlier ones where they
    /// overlap.
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
    /// (compression already happened per segment).
    store: FChunkBackend,
    codec: CodecKind,
    vis: Visibility,
    size: u64,
    size_dirty: bool,
    /// Append pointer into the byte store.
    tail: u64,
    next_seq: u64,
    /// Longest uncompressed segment ever written to this object. Bounds
    /// how far back of a read offset the index probe must start (a
    /// covering segment cannot begin earlier than `offset - max_seg_len`).
    max_seg_len: u64,
    /// Last decompressed segment, keyed by its byte-store pointer.
    seg_cache: Option<(u64, Vec<u8>)>,
    persist: bool,
}

impl VSegBackend {
    pub(crate) fn new(
        env: Arc<StorageEnv>,
        seg_heap: Heap,
        seg_index: BTree,
        store: FChunkBackend,
        meta: &LoMeta,
        vis: Visibility,
        persist: bool,
    ) -> Self {
        Self {
            env,
            id: meta.id,
            seg_heap,
            seg_index,
            store,
            codec: meta.codec,
            vis,
            size: meta.size,
            size_dirty: false,
            tail: meta.store_size,
            next_seq: meta.vseg_seq,
            // A stale/missing bound degrades to the global cap, never
            // to missed segments.
            max_seg_len: match meta.max_seg_len {
                0 => MAX_SEGMENT as u64,
                n => n,
            },
            seg_cache: None,
            persist,
        }
    }

    /// Visible segment records overlapping `[from, to)`, in creation order.
    fn overlapping_segments(&self, from: u64, to: u64) -> Result<Vec<SegRecord>> {
        // Probe back by the longest segment this object has ever held (a
        // covering segment cannot start earlier), capped by the global
        // segment-size bound.
        let lookback = self.max_seg_len.clamp(1, MAX_SEGMENT as u64);
        let probe = from.saturating_sub(lookback);
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
        found.sort_by_key(|r| r.seq);
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
        let ptr = self.tail;
        self.store.write_at(txn, ptr, &stored)?;
        self.tail += stored.len() as u64;
        let rec = SegRecord {
            locn,
            len: plain.len() as u32,
            clen: stored.len() as u32,
            ptr,
            seq: self.next_seq,
            flag,
        };
        self.next_seq += 1;
        self.max_seg_len = self.max_seg_len.max(plain.len() as u64);
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

    /// Recompute logical size from visible segments (time-travel opens).
    pub(crate) fn compute_size(&self) -> Result<u64> {
        let mut scan = self.seg_index.scan(ScanStart::First)?;
        let mut max_end = 0u64;
        while let Some((_key, tid)) = scan.next_entry()? {
            if let Some(payload) = self.seg_heap.fetch(tid, &self.vis)? {
                let rec = SegRecord::decode(&payload)?;
                max_end = max_end.max(rec.end());
            }
        }
        Ok(max_end)
    }

    pub(crate) fn set_size(&mut self, size: u64) {
        self.size = size;
    }

    /// Byte-store size for Figure 1 ("v-segment data").
    pub fn data_bytes(&self) -> Result<u64> {
        self.store.data_bytes()
    }
}

impl LoBackend for VSegBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if offset >= self.size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(self.size - offset) as usize;
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
        let end = offset + data.len() as u64;
        self.size = self.size.max(end);
        // Every write advances the segment counter and the store tail, so
        // metadata must be re-persisted even when the logical size is
        // unchanged (replacement writes).
        self.size_dirty = true;
        Ok(())
    }

    fn size(&mut self) -> Result<u64> {
        Ok(self.size)
    }

    fn flush(&mut self, txn: Option<&Txn>) -> Result<()> {
        self.store.flush(txn)?;
        if self.persist && self.size_dirty {
            // See FChunkBackend::flush — lets snapshot opens detect a size
            // cached by a transaction they cannot see.
            let xid = txn.map(|txn| txn.xid().0.to_string());
            let [size, seq, tail, max_seg] =
                [self.size, self.next_seq, self.tail, self.max_seg_len].map(|n| n.to_string());
            let mut props = vec![
                ("size", size.as_str()),
                ("vseg_seq", seq.as_str()),
                ("store_size", tail.as_str()),
                ("max_seg_len", max_seg.as_str()),
            ];
            props.extend(xid.as_deref().map(|xid| ("size_xid", xid)));
            if xid.is_some() {
                // The catalog is written outside the log: log the XID limit first.
                self.env.wal().log_xid_limit().map_err(LoError::Io)?;
            }
            self.env.catalog().set_props(&lo_class_name(self.id), &props)?;
            self.size_dirty = false;
        }
        Ok(())
    }

    fn forget_bytes(&mut self) {
        self.seg_cache = None;
        self.store.forget_bytes();
    }
}
