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
use crate::meta::lo_class_name;
use crate::{stored_form, LoError, LoId, Result};
use pglo_btree::{keys::u64_key, BTree};
use pglo_compress::CodecKind;
use pglo_heap::{AccessHint, Heap, StorageEnv};
use pglo_pages::Tid;
use pglo_txn::{Txn, Visibility};
use std::sync::Arc;

/// Chunk tuple prefix: `[seqno u32][flag u8]`.
const CHUNK_HDR: usize = 5;

fn encode_chunk(seq: u64, flag: u8, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHUNK_HDR + bytes.len());
    out.extend_from_slice(&(seq as u32).to_le_bytes());
    out.push(flag);
    out.extend_from_slice(bytes);
    out
}

fn decode_chunk(payload: &[u8]) -> Result<(u64, u8, &[u8])> {
    if payload.len() < CHUNK_HDR {
        return Err(LoError::Meta("chunk tuple shorter than its header".into()));
    }
    let seq = u32::from_le_bytes(payload[0..4].try_into().expect("seq")) as u64;
    Ok((seq, payload[4], &payload[CHUNK_HDR..]))
}

struct ChunkCache {
    seq: u64,
    /// Plain (decompressed) chunk bytes; may be shorter than [`CHUNK_SIZE`]
    /// for the object's tail chunk.
    data: Vec<u8>,
    dirty: bool,
}

/// The f-chunk backend. One per open handle.
pub struct FChunkBackend<'a> {
    env: Arc<StorageEnv>,
    id: LoId,
    heap: Heap,
    index: BTree,
    codec: CodecKind,
    vis: Visibility,
    txn: Option<&'a Txn>,
    size: u64,
    cache: Option<ChunkCache>,
    /// Persist size changes to the catalog on flush (false for internal and
    /// time-travel uses).
    persist_size: bool,
    size_dirty: bool,
    /// User bytes per chunk (the `byte[8000]` of §6.3 by default).
    chunk_size: usize,
}

impl<'a> FChunkBackend<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        env: Arc<StorageEnv>,
        id: LoId,
        heap: Heap,
        index: BTree,
        codec: CodecKind,
        vis: Visibility,
        txn: Option<&'a Txn>,
        size: u64,
        persist_size: bool,
        chunk_size: usize,
    ) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            env,
            id,
            heap,
            index,
            codec,
            vis,
            txn,
            size,
            cache: None,
            persist_size,
            size_dirty: false,
            chunk_size,
        }
    }

    /// The single visible version of chunk `seq`, as plain bytes.
    ///
    /// Chunks are inserted in sequence order, roughly one per heap page,
    /// so an ascending chunk walk is an ascending block walk — `hint`
    /// forwards that knowledge to the buffer pool's read-ahead. Callers
    /// pass [`AccessHint::Sequential`] only when `seq` actually continues
    /// a run; hinting it unconditionally would make every random read pay
    /// the pool's window-tracking cost for nothing.
    fn fetch_chunk(&self, seq: u64, hint: AccessHint) -> Result<Option<Vec<u8>>> {
        let mut versions = self.index.visible(&self.heap, &u64_key(seq), &self.vis, hint)?;
        let Some((_, payload)) = versions.next().transpose()? else { return Ok(None) };
        let (stored_seq, flag, bytes) = decode_chunk(&payload)?;
        if stored_seq != seq {
            return Err(LoError::Meta(format!(
                "{}: index entry for chunk {seq} points at chunk {stored_seq}",
                self.id
            )));
        }
        stored_form::decode(&self.env, self.codec, flag, bytes.into()).map(Some)
    }

    /// The visible version's TID for chunk `seq`, if any.
    fn visible_tid(&self, seq: u64) -> Result<Option<Tid>> {
        let key = u64_key(seq);
        let mut versions = self.index.visible(&self.heap, &key, &self.vis, AccessHint::Random)?;
        Ok(versions.next().transpose()?.map(|(tid, _)| tid))
    }

    fn write_back(&mut self) -> Result<()> {
        let Some(cache) = &self.cache else { return Ok(()) };
        if !cache.dirty {
            return Ok(());
        }
        let txn = self.txn.ok_or(LoError::ReadOnly)?;
        let seq = cache.seq;
        let (flag, stored) = stored_form::encode(&self.env, self.codec, &cache.data);
        let payload = encode_chunk(seq, flag, &stored);
        let new_tid = match self.visible_tid(seq)? {
            Some(old) => self.heap.update(txn, old, &payload)?,
            None => self.heap.insert(txn, &payload)?,
        };
        self.index.insert(&u64_key(seq), new_tid)?;
        if let Some(cache) = &mut self.cache {
            cache.dirty = false;
        }
        Ok(())
    }

    /// Make `seq` the cached chunk, fetching it unless `skip_fetch` (a full
    /// overwrite is about to replace every byte anyway).
    fn load_chunk(&mut self, seq: u64, skip_fetch: bool) -> Result<()> {
        if self.cache.as_ref().is_some_and(|c| c.seq == seq) {
            return Ok(());
        }
        // The one-chunk handle cache doubles as the run detector: a fetch
        // that continues past the cached chunk is part of a sequential
        // walk, anything else is a seek.
        let hint = match &self.cache {
            Some(c) if seq == c.seq + 1 => AccessHint::Sequential,
            _ => AccessHint::Random,
        };
        self.write_back()?;
        let data =
            if skip_fetch { Vec::new() } else { self.fetch_chunk(seq, hint)?.unwrap_or_default() };
        self.cache = Some(ChunkCache { seq, data, dirty: false });
        Ok(())
    }

    /// Recompute the logical size from visible chunks — used for
    /// time-travel opens, where the catalog's current size is wrong.
    pub(crate) fn compute_size(&self) -> Result<u64> {
        let mut scan = self.index.scan(pglo_btree::ScanStart::First)?;
        let mut max_seq: Option<u64> = None;
        while let Some((key, _tid)) = scan.next_entry()? {
            let seq = pglo_btree::keys::u64_prefix(&key);
            if max_seq.is_some_and(|m| seq <= m) {
                continue; // duplicates (old versions) of an already-counted chunk
            }
            if self.visible_tid(seq)?.is_some() {
                max_seq = Some(seq);
            }
        }
        match max_seq {
            None => Ok(0),
            Some(seq) => {
                let tail = self.fetch_chunk(seq, AccessHint::Random)?.unwrap_or_default();
                Ok(seq * self.chunk_size as u64 + tail.len() as u64)
            }
        }
    }

    /// Set the initial size (store uses this after `compute_size`).
    pub(crate) fn set_size(&mut self, size: u64) {
        self.size = size;
    }

    /// Storage-accounting hooks for Figure 1.
    pub fn data_bytes(&self) -> Result<u64> {
        Ok(self.heap.size_bytes()?)
    }

    /// Index size for Figure 1.
    pub fn index_bytes(&self) -> Result<u64> {
        Ok(self.index.size_bytes()?)
    }
}

impl LoBackend for FChunkBackend<'_> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if offset >= self.size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(self.size - offset) as usize;
        obs::counter!("lo.fchunk.read.bytes").add(want as u64);
        let mut chunks_walked = 0u64;
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let seq = pos / self.chunk_size as u64;
            let within = (pos % self.chunk_size as u64) as usize;
            let span = (self.chunk_size - within).min(want - done);
            chunks_walked += 1;
            self.load_chunk(seq, false)?;
            let data = &self.cache.as_ref().expect("chunk just loaded").data;
            // The chunk may be missing or short (sparse object): copy what
            // exists, zero-fill the rest.
            let copy = if within < data.len() {
                let copy = (data.len() - within).min(span);
                buf[done..done + copy].copy_from_slice(&data[within..within + copy]);
                copy
            } else {
                0
            };
            buf[done + copy..done + span].fill(0);
            done += span;
        }
        obs::histogram!("lo.fchunk.chunk_walk").record(chunks_walked);
        Ok(want)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if self.txn.is_none() {
            return Err(LoError::ReadOnly);
        }
        obs::counter!("lo.fchunk.write.bytes").add(data.len() as u64);
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
            let skip_fetch = within == 0 && (span == self.chunk_size || chunk_start >= self.size);
            self.load_chunk(seq, skip_fetch)?;
            let cache = self.cache.as_mut().expect("chunk just loaded");
            if cache.data.len() < within + span {
                cache.data.resize(within + span, 0);
            }
            cache.data[within..within + span].copy_from_slice(&data[done..done + span]);
            cache.dirty = true;
            done += span;
        }
        let end = offset + data.len() as u64;
        if end > self.size {
            self.size = end;
            self.size_dirty = true;
        }
        Ok(())
    }

    fn size(&mut self) -> Result<u64> {
        Ok(self.size)
    }

    fn flush(&mut self) -> Result<()> {
        self.write_back()?;
        if self.persist_size && self.size_dirty {
            // Stamp who cached this size: the catalog is not MVCC, so a
            // later snapshot open must be able to tell whether the cached
            // size came from a transaction it can actually see (it
            // recomputes from visible chunks if not). Size and xid land
            // in one catalog snapshot.
            let xid = self.txn.map(|txn| txn.xid().0.to_string());
            let size = self.size.to_string();
            let mut props = vec![("size", size.as_str())];
            props.extend(xid.as_deref().map(|xid| ("size_xid", xid)));
            self.env.catalog().set_props(&lo_class_name(self.id), &props)?;
            self.size_dirty = false;
        }
        Ok(())
    }
}
