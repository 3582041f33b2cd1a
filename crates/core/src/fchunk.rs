//! §6.3 — fixed-length data chunks.
//!
//! "In order to support transactions on large objects, POSTGRES breaks them
//! into chunks and stores the chunks as records in the database. … For
//! each large object, P, a POSTGRES class is constructed of the form
//! `create P (sequence-number = int4, data = byte[8000])`."
//!
//! Each object owns an anonymous chunk heap plus a B-tree on the sequence
//! number. Chunk tuples are `[seqno u32][flag u8][data]`, where `flag`
//! records whether the data bytes are codec-compressed. A chunk compressed
//! to more than half a page still occupies a page alone ("no space savings
//! is achieved unless the compression routine reduces the size of a chunk
//! by one half"); below half, the heap naturally packs two per page.
//!
//! Reads and writes go through a one-chunk handle cache, giving sequential
//! access the same single-load behaviour the paper's measurements assume.
//! Decompression happens per chunk at access time — just-in-time (§3).

use crate::handle::LoBackend;
use crate::meta::LoMeta;
use crate::{stored_form, LoError, LoId, Result};
use pglo_btree::keys::{u64_key, u64_prefix};
use pglo_btree::BTree;
use pglo_compress::CodecKind;
use pglo_heap::{AccessHint, Heap, HeapError, StorageEnv};
use pglo_pages::Tid;
use pglo_txn::{Txn, Visibility};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Chunk tuple prefix: `[seqno u32][flag u8]`.
const CHUNK_HDR: usize = 5;

fn decode_chunk(payload: &[u8]) -> Result<(u64, u8, &[u8])> {
    let Some((seq, [flag, bytes @ ..])) = payload.split_first_chunk::<4>() else {
        return Err(LoError::Meta("chunk tuple shorter than its header".into()));
    };
    Ok((u32::from_le_bytes(*seq) as u64, *flag, bytes))
}

/// Make the emptied `buf` hold `plain`: copied into its capacity when
/// borrowed from a page, moved in when decompressed.
fn keep_plain(buf: &mut Vec<u8>, plain: Cow<'_, [u8]>) {
    match plain {
        Cow::Borrowed(plain) => buf.extend_from_slice(plain),
        Cow::Owned(plain) => *buf = plain,
    }
}

struct ChunkCache {
    seq: u64,
    /// Plain (decompressed) chunk bytes; may be shorter than [`CHUNK_SIZE`]
    /// for the object's tail chunk.
    data: Vec<u8>,
    /// The version `data` was loaded from or last written as, which the
    /// next write-back supersedes; `None` when no version was fetched.
    tid: Option<Tid>,
    dirty: bool,
}

/// The bytes of a read, laid over the chunks they come from.
struct ReadSpan<'b> {
    buf: &'b mut [u8],
    /// Object offset of `buf[0]`.
    offset: u64,
    chunk: u64,
}

impl ReadSpan<'_> {
    /// Copy chunk `seq`'s plain bytes into the part of `buf` it covers,
    /// zeros past their end: a missing or short chunk (sparse object)
    /// reads as zeros.
    fn put(&mut self, seq: u64, plain: &[u8]) {
        let end = self.offset + self.buf.len() as u64;
        let lo = (seq * self.chunk).clamp(self.offset, end);
        let hi = ((seq + 1) * self.chunk).clamp(self.offset, end);
        let plain = plain.get((lo - seq * self.chunk) as usize..).unwrap_or_default();
        let part = &mut self.buf[(lo - self.offset) as usize..(hi - self.offset) as usize];
        let (bytes, zeros) = part.split_at_mut(plain.len().min(part.len()));
        bytes.copy_from_slice(&plain[..bytes.len()]);
        zeros.fill(0);
    }
}

/// The f-chunk backend. One per open handle or cursor.
pub struct FChunkBackend {
    env: Arc<StorageEnv>,
    id: LoId,
    heap: Heap,
    index: BTree,
    codec: CodecKind,
    vis: Visibility,
    /// The end of the last chunk `vis` sees, derived when first needed
    /// and moved on by this backend's own writes.
    size: Option<u64>,
    cache: Option<ChunkCache>,
    /// Whether a write grew the object since the last flush.
    grew: bool,
    /// User bytes per chunk (the `byte[8000]` of §6.3 by default).
    chunk_size: usize,
}

impl FChunkBackend {
    /// Open the chunk class of `meta` (an f-chunk object, or a v-segment
    /// object's byte store) with `codec` under `vis`. Nothing is read
    /// until an operation needs it.
    pub(crate) fn open(
        env: Arc<StorageEnv>,
        meta: &LoMeta,
        codec: CodecKind,
        vis: Visibility,
    ) -> Self {
        assert!(meta.chunk_size > 0, "chunk size must be positive");
        Self {
            heap: Heap::open_oid(&env, meta.data_rel, meta.smgr),
            index: BTree::open_oid(&env, meta.idx_rel, meta.smgr),
            env,
            id: meta.id,
            codec,
            vis,
            size: None,
            cache: None,
            grew: false,
            chunk_size: meta.chunk_size,
        }
    }

    /// Chunk `(seq, flag, stored bytes)` of an index entry's payload,
    /// checked against the entry's key.
    fn chunk_at<'p>(&self, key: &[u8], payload: &'p [u8]) -> Result<(u64, u8, &'p [u8])> {
        let short_key = || LoError::Meta(format!("{}: chunk index key too short", self.id));
        let seq = u64_prefix(key).ok_or_else(short_key)?;
        let (stored_seq, flag, bytes) = decode_chunk(payload)?;
        if stored_seq != seq {
            return Err(LoError::Meta(format!(
                "{}: index entry for chunk {seq} points at chunk {stored_seq}",
                self.id
            )));
        }
        Ok((seq, flag, bytes))
    }

    /// Hand each visible chunk in `lo..=hi` to `f` as `(seq, tid, flag,
    /// stored bytes)`, the bytes borrowed from the chunk's pinned heap page:
    /// one index descent and one leaf walk, however many chunks.
    ///
    /// Chunks are inserted in sequence order, roughly one per heap page,
    /// so an ascending chunk walk is an ascending block walk: every chunk
    /// after the first is fetched with [`AccessHint::Sequential`], and
    /// `hint` says whether the first continues a run. Callers pass
    /// [`AccessHint::Sequential`] only when it does; hinting every seek
    /// would make every random read pay the pool's window-tracking cost
    /// for nothing.
    fn walk_chunks(
        &self,
        lo: u64,
        hi: u64,
        hint: AccessHint,
        mut f: impl FnMut(u64, Tid, u8, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let (lo_key, hi_key) = (u64_key(lo), u64_key(hi));
        self.index.visible_range(
            &self.heap,
            &lo_key,
            &hi_key,
            &self.vis,
            hint,
            |key, tid, payload| {
                let (seq, flag, bytes) = self.chunk_at(key, payload)?;
                f(seq, tid, flag, bytes)
            },
        )
    }

    /// Copy the visible chunks `lo..=hi` into `span` from one
    /// [`Self::walk_chunks`], zero-filling the ones that are missing or
    /// short; chunk `hi`'s plain bytes and TID also go to `keep`, if given.
    fn read_chunks(
        &self,
        span: &mut ReadSpan<'_>,
        (lo, hi): (u64, u64),
        hint: AccessHint,
        mut keep: Option<&mut ChunkCache>,
    ) -> Result<()> {
        let mut next = lo;
        self.walk_chunks(lo, hi, hint, |seq, tid, flag, bytes| {
            (next..seq).for_each(|missing| span.put(missing, &[]));
            let plain = stored_form::decode(&self.env, self.codec, flag, bytes.into())?;
            span.put(seq, &plain);
            if let Some(keep) = keep.as_deref_mut().filter(|_| seq == hi) {
                keep.tid = Some(tid);
                keep_plain(&mut keep.data, plain);
            }
            next = seq + 1;
            Ok(())
        })?;
        (next..=hi).for_each(|missing| span.put(missing, &[]));
        Ok(())
    }

    /// Write the dirty cached chunk back as a new version, the chunk
    /// prefix and stored bytes copied straight into the heap page. It
    /// supersedes the cached version, the one the handle loaded or last
    /// wrote, unless that one's stamp conflicts (another handle of this
    /// transaction may have superseded it) or there is none: then a lookup
    /// finds the visible version to supersede, and another transaction's
    /// stamp conflicts again and is returned.
    fn write_back(&mut self, txn: Option<&Txn>) -> Result<()> {
        let Some(cache) = self.cache.as_ref().filter(|c| c.dirty) else { return Ok(()) };
        let txn = txn.ok_or(LoError::ReadOnly)?;
        let seq = cache.seq;
        let (flag, stored) = stored_form::encode(&self.env, self.codec, &cache.data);
        let mut head = [flag; CHUNK_HDR];
        head[..4].copy_from_slice(&(seq as u32).to_le_bytes());
        let update = |tid| self.heap.update_parts(txn, tid, &head, &stored);
        let new_tid = match cache.tid.map(update) {
            Some(Err(HeapError::WriteConflict { .. })) | None => {
                // One index descent and one fetch, copying no payload.
                let mut found = None;
                self.walk_chunks(seq, seq, AccessHint::Random, |_, tid, _, _| {
                    found = Some(tid);
                    Ok(())
                })?;
                match found {
                    Some(tid) => update(tid)?,
                    None => self.heap.insert_parts(txn, &head, &stored)?,
                }
            }
            Some(done) => done?,
        };
        self.index.insert(&u64_key(seq), new_tid)?;
        if let Some(cache) = &mut self.cache {
            (cache.dirty, cache.tid) = (false, Some(new_tid));
        }
        Ok(())
    }

    /// Whether a fetch of chunk `seq` continues the run the cached chunk
    /// ended. The one-chunk handle cache doubles as the run detector: a
    /// fetch that continues past the cached chunk is part of a sequential
    /// walk, anything else is a seek.
    fn run_hint(&self, seq: u64) -> AccessHint {
        match &self.cache {
            Some(c) if seq == c.seq + 1 => AccessHint::Sequential,
            _ => AccessHint::Random,
        }
    }

    /// Hand over the cached chunk's buffer, emptied, for the chunk about
    /// to replace it. The cached chunk must be clean.
    fn take_buffer(&mut self) -> Vec<u8> {
        let mut data = self.cache.take().map(|c| c.data).unwrap_or_default();
        data.clear();
        data
    }

    /// Make `seq` the cached chunk, fetching it unless `skip_fetch` (a full
    /// overwrite is about to replace every byte anyway). The chunk it
    /// replaces is written back as `txn` first, before any walk, never
    /// under the index latch.
    fn load_chunk(&mut self, txn: &Txn, seq: u64, skip_fetch: bool) -> Result<&mut ChunkCache> {
        if let Some(cached) = self.cache.take_if(|c| c.seq == seq) {
            return Ok(self.cache.insert(cached));
        }
        let hint = self.run_hint(seq);
        self.write_back(Some(txn))?;
        let mut chunk = ChunkCache { seq, data: self.take_buffer(), tid: None, dirty: false };
        if !skip_fetch {
            self.walk_chunks(seq, seq, hint, |_, tid, flag, bytes| {
                let plain = stored_form::decode(&self.env, self.codec, flag, bytes.into())?;
                chunk.tid = Some(tid);
                keep_plain(&mut chunk.data, plain);
                Ok(())
            })?;
        }
        Ok(self.cache.insert(chunk))
    }
}

impl LoBackend for FChunkBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let size = self.size()?;
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        obs::counter!("lo.fchunk.read.bytes").add(want as u64);
        let chunk = self.chunk_size as u64;
        let (first, last) = (offset / chunk, (offset + want as u64 - 1) / chunk);
        obs::histogram!("lo.fchunk.chunk_walk").record(last - first + 1);
        let span = &mut ReadSpan { buf: &mut buf[..want], offset, chunk };
        // The cached chunk — dirty or not, so a handle reads its own
        // writes — is served from the cache, the chunks before and after it
        // from one walk each. The chunk the read ends in becomes the cached
        // one, in the old one's buffer: the next sequential read starts
        // with a cache hit. A dirty cached chunk stays: only the write
        // path, which has the transaction, writes it back.
        let cached = self.cache.as_ref().filter(|c| (first..=last).contains(&c.seq));
        let (before, after, hint) = match cached {
            Some(c) => {
                span.put(c.seq, &c.data);
                (
                    (c.seq > first).then(|| (first, c.seq - 1)),
                    (c.seq < last).then(|| (c.seq + 1, last)),
                    AccessHint::Sequential,
                )
            }
            None => (None, Some((first, last)), self.run_hint(first)),
        };
        if let Some(before) = before {
            self.read_chunks(span, before, AccessHint::Random, None)?;
        }
        match after {
            Some(after) if self.cache.as_ref().is_some_and(|c| c.dirty) => {
                self.read_chunks(span, after, hint, None)?;
            }
            Some(after) => {
                let mut keep =
                    ChunkCache { seq: last, data: self.take_buffer(), tid: None, dirty: false };
                self.read_chunks(span, after, hint, Some(&mut keep))?;
                self.cache = Some(keep);
            }
            None => {}
        }
        Ok(want)
    }

    fn write_at(&mut self, txn: &Txn, offset: u64, data: &[u8]) -> Result<()> {
        obs::counter!("lo.fchunk.write.bytes").add(data.len() as u64);
        let size = self.size()?;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let seq = pos / self.chunk_size as u64;
            let within = (pos % self.chunk_size as u64) as usize;
            let span = (self.chunk_size - within).min(data.len() - done);
            // Skip the read when this write replaces the chunk wholesale:
            // a full chunk, or the chunk containing everything past the
            // current end of object.
            let chunk_start = seq * self.chunk_size as u64;
            let skip_fetch = within == 0 && (span == self.chunk_size || chunk_start >= size);
            let cache = self.load_chunk(txn, seq, skip_fetch)?;
            if cache.data.len() < within + span {
                cache.data.resize(within + span, 0);
            }
            cache.data[within..within + span].copy_from_slice(&data[done..done + span]);
            cache.dirty = true;
            done += span;
        }
        let end = offset + data.len() as u64;
        if end > size {
            (self.size, self.grew) = (Some(end), true);
        }
        Ok(())
    }

    /// The object's end: as this backend last knew it, or else the end
    /// of the last chunk `vis` sees, its start plus its plain length, 0
    /// with no chunk. One reverse probe: a descent, and one heap fetch
    /// when the last chunk's newest version is visible. Only a compressed
    /// last chunk is decoded.
    fn size(&mut self) -> Result<u64> {
        if let Some(size) = self.size {
            self.heap.nblocks()?; // an unlink under this open shows here
            return Ok(size);
        }
        let mut end = 0;
        let hi = u64_key(u64::MAX);
        self.index.visible_rev(&self.heap, &hi, &self.vis, |key, _, payload| {
            let (seq, flag, bytes) = self.chunk_at(key, payload)?;
            let len = stored_form::decode(&self.env, self.codec, flag, bytes.into())?.len();
            end = seq * self.chunk_size as u64 + len as u64;
            Ok::<_, LoError>(ControlFlow::Break(()))
        })?;
        Ok(*self.size.insert(end))
    }

    fn flush(&mut self, txn: Option<&Txn>) -> Result<()> {
        self.write_back(txn)?;
        // The new end is now in the chunks: another open under `txn`
        // derives it, and `txn` counts that it moved.
        if let (true, Some(txn)) = (std::mem::take(&mut self.grew), txn) {
            txn.note_extension();
        }
        Ok(())
    }

    fn forget_bytes(&mut self) {
        if self.cache.as_ref().is_some_and(|c| !c.dirty) {
            self.cache = None;
        }
    }
}
