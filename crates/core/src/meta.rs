//! Large-object metadata: one row per object in a logged heap relation.
//!
//! Each object's [`LoMeta`] (implementation kind, codec, device, owner,
//! component relation OIDs, chunk size, host path) is one binary row of
//! the metadata heap, found through a B-tree on its [`LoId`]; both live
//! at reserved OIDs below the first one the log hands out, on the
//! environment's disk, and are created when a [`crate::LoStore`] first
//! opens the directory. The row is inserted by the creating transaction
//! and never updated, so it is under the same MVCC and redo log as the
//! object's chunks: an open resolves it under its snapshot or as of its
//! timestamp, and an aborted create leaves a row nobody's snapshot sees.
//! Its size is not there: an open derives it from the chunks or segments
//! its snapshot sees.

use crate::{LoError, LoId, Result, UserId};
use pglo_btree::{keys::u64_key, BTree};
use pglo_compress::CodecKind;
use pglo_heap::{AccessHint, Heap, StorageEnv, META_HEAP, META_INDEX};
use pglo_pages::Tid;
use pglo_smgr::SmgrId;
use pglo_txn::Visibility;
use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::PathBuf;
use std::sync::Arc;

/// Which of the four implementations (§6) backs an object — the `storage =`
/// clause of `create large type` (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoKind {
    /// §6.1 — user file.
    UFile,
    /// §6.2 — POSTGRES-owned file.
    PFile,
    /// §6.3 — fixed-length chunks in a class.
    FChunk,
    /// §6.4 — variable-length compressed segments.
    VSegment,
}

impl LoKind {
    /// The persisted (and DDL) spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            LoKind::UFile => "ufile",
            LoKind::PFile => "pfile",
            LoKind::FChunk => "fchunk",
            LoKind::VSegment => "vsegment",
        }
    }

    /// Parse the spelling produced by [`LoKind::as_str`].
    pub fn parse(s: &str) -> Option<LoKind> {
        match s {
            "ufile" => Some(LoKind::UFile),
            "pfile" => Some(LoKind::PFile),
            "fchunk" => Some(LoKind::FChunk),
            "vsegment" => Some(LoKind::VSegment),
            _ => None,
        }
    }
}

/// Persistent description of one large object.
#[derive(Debug, Clone)]
pub struct LoMeta {
    /// The id.
    pub id: LoId,
    /// The kind.
    pub kind: LoKind,
    /// The codec.
    pub codec: CodecKind,
    /// Device for the chunk/segment relations.
    pub smgr: SmgrId,
    /// The owner.
    pub owner: UserId,
    /// f-chunk: chunk heap OID. v-segment: byte-store chunk heap OID.
    pub data_rel: u64,
    /// f-chunk: seqno B-tree OID. v-segment: byte-store seqno B-tree OID.
    pub idx_rel: u64,
    /// v-segment only: segment-index heap OID.
    pub seg_rel: u64,
    /// v-segment only: segment-index B-tree OID.
    pub seg_idx_rel: u64,
    /// u-file/p-file: host path.
    pub path: Option<PathBuf>,
    /// f-chunk (and the v-segment byte store): bytes of user data per
    /// chunk. Defaults to [`crate::CHUNK_SIZE`]; the chunk-size ablation
    /// benchmark varies it.
    pub chunk_size: usize,
}

/// Bytes of a row before its names: the id, device, owner, four
/// relation OIDs and chunk size.
const ROW_FIXED: usize = 50;

impl LoMeta {
    /// The row: `id u64, smgr u16, owner u32, data_rel, idx_rel, seg_rel,
    /// seg_idx_rel u64, chunk_size u32`, little-endian, then the kind's
    /// and the codec's names and, for a host file, its path, each after a
    /// zero byte but the first.
    fn encode(&self) -> Vec<u8> {
        let mut row = Vec::with_capacity(ROW_FIXED + 16);
        row.extend_from_slice(&self.id.0.to_le_bytes());
        row.extend_from_slice(&self.smgr.0.to_le_bytes());
        row.extend_from_slice(&self.owner.0.to_le_bytes());
        for rel in [self.data_rel, self.idx_rel, self.seg_rel, self.seg_idx_rel] {
            row.extend_from_slice(&rel.to_le_bytes());
        }
        row.extend_from_slice(&(self.chunk_size as u32).to_le_bytes());
        row.extend_from_slice(self.kind.as_str().as_bytes());
        row.push(0);
        row.extend_from_slice(self.codec.as_str().as_bytes());
        if let Some(path) = &self.path {
            row.push(0);
            row.extend_from_slice(path.as_os_str().as_bytes());
        }
        row
    }

    /// Decode the row the index names for `id`, checked against it.
    fn decode(id: LoId, row: &[u8]) -> Result<LoMeta> {
        fn at<const N: usize>(row: &[u8], at: usize) -> Option<[u8; N]> {
            row.get(at..)?.first_chunk().copied()
        }
        let u64_at = |i| at(row, i).map(u64::from_le_bytes);
        let parse = || {
            let mut names = row.get(ROW_FIXED..)?.split(|&b| b == 0);
            let mut name = || std::str::from_utf8(names.next()?).ok();
            let (kind, codec) = (LoKind::parse(name()?)?, CodecKind::parse(name()?)?);
            Some(LoMeta {
                id: LoId(u64_at(0)?),
                kind,
                codec,
                smgr: SmgrId(u16::from_le_bytes(at(row, 8)?)),
                owner: UserId(u32::from_le_bytes(at(row, 10)?)),
                data_rel: u64_at(14)?,
                idx_rel: u64_at(22)?,
                seg_rel: u64_at(30)?,
                seg_idx_rel: u64_at(38)?,
                path: names.next().map(|p| PathBuf::from(OsStr::from_bytes(p))),
                chunk_size: u32::from_le_bytes(at(row, 46)?) as usize,
            })
        };
        parse()
            .filter(|m| m.id == id)
            .ok_or_else(|| LoError::Meta(format!("{id}: bad metadata row")))
    }
}

/// The metadata heap and its B-tree on [`LoId`].
pub(crate) struct MetaTable {
    heap: Heap,
    index: BTree,
}

impl MetaTable {
    /// Open both relations on `env`'s disk, creating whichever does not
    /// exist yet.
    pub(crate) fn open(env: &Arc<StorageEnv>) -> Result<Self> {
        let disk = env.disk_id();
        let heap = Heap::open_or_create(env, META_HEAP, disk)?;
        Ok(Self { heap, index: BTree::open_or_create(env, META_INDEX, disk)? })
    }

    /// Insert `meta`'s row as `txn`, and its index entry.
    pub(crate) fn insert(&self, txn: &pglo_txn::Txn, meta: &LoMeta) -> Result<()> {
        let tid = self.heap.insert(txn, &meta.encode())?;
        Ok(self.index.insert(&u64_key(meta.id.0), tid)?)
    }

    /// The row of `id` that `vis` sees, and where it is. Through the index
    /// alone with [`Visibility::Raw`]: every indexed row, committed or not.
    pub(crate) fn get(&self, id: LoId, vis: &Visibility) -> Result<(Tid, LoMeta)> {
        let key = u64_key(id.0);
        let mut rows = self.index.visible(&self.heap, &key, vis, AccessHint::Random)?;
        let (tid, row) = rows.next().ok_or(LoError::NotFound(id))??;
        Ok((tid, LoMeta::decode(id, &row)?))
    }

    /// Remove `id`'s index entry for the row at `tid` (`NotFound` if
    /// another caller already did), then stamp the row deleted in a
    /// transaction of its own: no later snapshot sees it, and a vacuum
    /// may reclaim it.
    pub(crate) fn remove(&self, id: LoId, tid: Tid) -> Result<()> {
        if !self.index.delete(&u64_key(id.0), tid)? {
            return Err(LoError::NotFound(id));
        }
        let txn = self.heap.env().begin();
        self.heap.delete(&txn, tid)?;
        txn.try_commit()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vsegment_meta() -> LoMeta {
        LoMeta {
            id: LoId(42),
            kind: LoKind::VSegment,
            codec: CodecKind::Rle,
            smgr: SmgrId(2),
            owner: UserId(7),
            data_rel: 100,
            idx_rel: 101,
            seg_rel: 102,
            seg_idx_rel: 103,
            path: None,
            chunk_size: 64,
        }
    }

    #[test]
    fn row_roundtrip() {
        let meta = vsegment_meta();
        let back = LoMeta::decode(LoId(42), &meta.encode()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{meta:?}"));
        assert_eq!(meta.encode().len(), ROW_FIXED + "vsegment\0rle".len());
    }

    #[test]
    fn path_preserved() {
        let meta = LoMeta {
            kind: LoKind::UFile,
            codec: CodecKind::None,
            path: Some(PathBuf::from("/usr/joe")),
            ..vsegment_meta()
        };
        let back = LoMeta::decode(LoId(42), &meta.encode()).unwrap();
        assert_eq!(back.path.unwrap(), PathBuf::from("/usr/joe"));
        assert_eq!(back.kind, LoKind::UFile);
    }

    /// A short row, an unknown kind, and a row the index filed under
    /// another id are all refused.
    #[test]
    fn damaged_row_is_error() {
        let row = vsegment_meta().encode();
        assert!(LoMeta::decode(LoId(42), &row[..ROW_FIXED - 1]).is_err());
        assert!(LoMeta::decode(LoId(43), &row).is_err());
        let mut blob = row[..ROW_FIXED].to_vec();
        blob.extend_from_slice(b"blob\0rle");
        assert!(LoMeta::decode(LoId(42), &blob).is_err());
    }

    #[test]
    fn kind_strings() {
        for k in [LoKind::UFile, LoKind::PFile, LoKind::FChunk, LoKind::VSegment] {
            assert_eq!(LoKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(LoKind::parse("blob"), None);
    }
}
