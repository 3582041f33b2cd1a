//! The large-object manager: create, open, time-travel open, unlink.

use crate::fchunk::FChunkBackend;
use crate::handle::{LoBackend, LoHandle, OpenMode};
use crate::meta::{lo_class_name, LoKind, LoMeta};
use crate::pfile::PFileBackend;
use crate::temp::TempRegistry;
use crate::ufile::UFileBackend;
use crate::vsegment::VSegBackend;
use crate::{LoError, LoId, Result, UserId};
use pglo_btree::BTree;
use pglo_compress::CodecKind;
use pglo_heap::{ClassKind, Heap, StorageEnv};
use pglo_smgr::{NativeFile, SmgrId};
use pglo_txn::{Txn, TxnStatus, Visibility, Xid};
use std::path::PathBuf;
use std::sync::Arc;

/// What to create — the runtime form of `create large type (... storage =
/// ..., compression = ...)` (§4).
#[derive(Debug, Clone)]
pub struct LoSpec {
    /// The kind.
    pub kind: LoKind,
    /// The codec.
    pub codec: CodecKind,
    /// Device for chunk/segment relations; the environment's magnetic disk
    /// if `None`.
    pub smgr: Option<SmgrId>,
    /// The owner.
    pub owner: UserId,
    /// u-file only: the user-supplied path ("/usr/joe" in the paper's
    /// example).
    pub path: Option<PathBuf>,
    /// f-chunk/v-segment: user bytes per chunk (§6.3's 8000 by default).
    pub chunk_size: usize,
}

impl LoSpec {
    /// An f-chunk object with no compression — the workhorse default.
    pub fn fchunk() -> Self {
        Self {
            kind: LoKind::FChunk,
            codec: CodecKind::None,
            smgr: None,
            owner: UserId::DBA,
            path: None,
            chunk_size: crate::CHUNK_SIZE,
        }
    }

    /// A v-segment object with the given codec.
    pub fn vsegment(codec: CodecKind) -> Self {
        Self {
            kind: LoKind::VSegment,
            codec,
            smgr: None,
            owner: UserId::DBA,
            path: None,
            chunk_size: crate::CHUNK_SIZE,
        }
    }

    /// A u-file object at `path`.
    pub fn ufile(path: impl Into<PathBuf>) -> Self {
        Self {
            kind: LoKind::UFile,
            codec: CodecKind::None,
            smgr: None,
            owner: UserId::DBA,
            path: Some(path.into()),
            chunk_size: crate::CHUNK_SIZE,
        }
    }

    /// A p-file object (the store allocates the path via `newfilename`).
    pub fn pfile() -> Self {
        Self {
            kind: LoKind::PFile,
            codec: CodecKind::None,
            smgr: None,
            owner: UserId::DBA,
            path: None,
            chunk_size: crate::CHUNK_SIZE,
        }
    }

    /// Builder: set the codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Builder: set the device.
    pub fn on_smgr(mut self, smgr: SmgrId) -> Self {
        self.smgr = Some(smgr);
        self
    }

    /// Builder: set the owner.
    // LINT: allow(R14, sets the owner the p-file permission check reads; the permission tests use it)
    pub fn owned_by(mut self, owner: UserId) -> Self {
        self.owner = owner;
        self
    }

    /// Builder: set the chunk size (the §6.3 geometry ablation).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0);
        self.chunk_size = chunk_size;
        self
    }
}

/// Per-object storage breakdown — the rows of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoStorage {
    /// Bytes of data pages (or host-file bytes for u-file/p-file).
    pub data_bytes: u64,
    /// v-segment only: segment-index heap ("2-level map").
    pub map_bytes: u64,
    /// B-tree index bytes.
    pub index_bytes: u64,
}

impl LoStorage {
    /// Bytes of data, map and index together.
    // LINT: allow(R14, the Figure 1 storage total the examples print)
    pub fn total(&self) -> u64 {
        self.data_bytes + self.map_bytes + self.index_bytes
    }
}

/// What an open sees.
pub(crate) enum View<'t> {
    /// A running transaction's snapshot, its own writes included.
    Txn(&'t Txn),
    /// The database exactly as of a commit timestamp (time travel).
    AsOf(u64),
}

/// The large-object manager.
pub struct LoStore {
    env: Arc<StorageEnv>,
    temps: TempRegistry,
}

impl LoStore {
    /// An object manager over `env`.
    pub fn new(env: Arc<StorageEnv>) -> Self {
        Self { env, temps: TempRegistry::new() }
    }

    /// The backing environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// Allocate a DBMS-owned file path — the paper's `newfilename()` (§6.2).
    pub fn newfilename(&self, id: LoId) -> Result<PathBuf> {
        let dir = self.env.pfile_dir();
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(format!("lo_{}", id.0)))
    }

    /// Create a large object per `spec`, returning its name.
    pub fn create(&self, _txn: &Txn, spec: &LoSpec) -> Result<LoId> {
        // A chunk plus its tuple and chunk headers must fit one page —
        // POSTGRES does not break tuples across pages (§6.3).
        let max_chunk = Heap::max_payload() - 8;
        if spec.chunk_size == 0 || spec.chunk_size > max_chunk {
            return Err(LoError::Meta(format!(
                "chunk size {} outside 1..={max_chunk}",
                spec.chunk_size
            )));
        }
        let id = LoId(self.env.catalog().alloc_oid()?);
        let smgr = spec.smgr.unwrap_or_else(|| self.env.disk_id());
        let mut meta = LoMeta {
            id,
            kind: spec.kind,
            codec: spec.codec,
            smgr,
            owner: spec.owner,
            size: 0,
            size_xid: Xid::INVALID,
            store_size: 0,
            vseg_seq: 0,
            max_seg_len: 0,
            data_rel: 0,
            idx_rel: 0,
            seg_rel: 0,
            seg_idx_rel: 0,
            path: None,
            chunk_size: spec.chunk_size,
        };
        match spec.kind {
            LoKind::UFile => {
                let path =
                    spec.path.clone().ok_or(LoError::Unsupported("u-file requires a path"))?;
                // Touch the file so later opens succeed.
                NativeFile::open(&path, self.env.sim().clone(), true)?;
                meta.path = Some(path);
            }
            LoKind::PFile => {
                let path = self.newfilename(id)?;
                NativeFile::open(&path, self.env.sim().clone(), true)?;
                meta.path = Some(path);
            }
            LoKind::FChunk => {
                let heap = Heap::create_anonymous(&self.env, smgr)?;
                let index = BTree::create_anonymous(&self.env, smgr)?;
                meta.data_rel = heap.rel();
                meta.idx_rel = index.rel();
            }
            LoKind::VSegment => {
                let store_heap = Heap::create_anonymous(&self.env, smgr)?;
                let store_index = BTree::create_anonymous(&self.env, smgr)?;
                let seg_heap = Heap::create_anonymous(&self.env, smgr)?;
                let seg_index = BTree::create_anonymous(&self.env, smgr)?;
                meta.data_rel = store_heap.rel();
                meta.idx_rel = store_index.rel();
                meta.seg_rel = seg_heap.rel();
                meta.seg_idx_rel = seg_index.rel();
            }
        }
        self.env.catalog().create_class(
            &lo_class_name(id),
            ClassKind::Heap,
            smgr,
            meta.to_props(),
        )?;
        Ok(id)
    }

    /// The metadata of an object.
    pub fn meta(&self, id: LoId) -> Result<LoMeta> {
        let class = self.env.catalog().get(&lo_class_name(id)).ok_or(LoError::NotFound(id))?;
        LoMeta::from_props(id, &class.props)
    }

    /// Open as the database superuser.
    pub fn open<'a>(&self, txn: &'a Txn, id: LoId, mode: OpenMode) -> Result<LoHandle<'a>> {
        self.open_as(txn, id, mode, UserId::DBA)
    }

    /// Open with an explicit user identity; p-file writes require ownership
    /// (§6.2's single-user-updatable property), f-chunk/v-segment writes
    /// require ownership or the DBA, u-files are unprotected (§6.1).
    pub fn open_as<'a>(
        &self,
        txn: &'a Txn,
        id: LoId,
        mode: OpenMode,
        user: UserId,
    ) -> Result<LoHandle<'a>> {
        let backend = self.open_backend(id, View::Txn(txn), mode, user)?;
        Ok(LoHandle::new(backend, mode, Some(txn)))
    }

    /// Time-travel open: the object exactly as of commit timestamp `ts`.
    /// Always read-only. Only f-chunk and v-segment support history — the
    /// file implementations have none (§6.1).
    pub fn open_as_of(&self, id: LoId, ts: u64) -> Result<LoHandle<'static>> {
        let backend = self.open_backend(id, View::AsOf(ts), OpenMode::ReadOnly, UserId::DBA)?;
        Ok(LoHandle::new(backend, OpenMode::ReadOnly, None))
    }

    /// The one open: resolve `id` from the catalog, check that `user` may
    /// open it in `mode` (a time-travel open reads only), and build its
    /// backend for `view`.
    pub(crate) fn open_backend(
        &self,
        id: LoId,
        view: View<'_>,
        mode: OpenMode,
        user: UserId,
    ) -> Result<Box<dyn LoBackend>> {
        let meta = self.meta(id)?;
        if mode == OpenMode::ReadWrite {
            let allowed = match meta.kind {
                LoKind::UFile => true,
                LoKind::PFile => user == meta.owner,
                LoKind::FChunk | LoKind::VSegment => user == meta.owner || user == UserId::DBA,
            };
            if !allowed {
                return Err(LoError::Permission { lo: id, user });
            }
        }
        let vis = match view {
            View::Txn(txn) => Visibility::for_txn(txn),
            View::AsOf(_) if matches!(meta.kind, LoKind::UFile | LoKind::PFile) => {
                return Err(LoError::Unsupported(
                    "time travel requires the f-chunk or v-segment implementation",
                ))
            }
            View::AsOf(ts) => Visibility::AsOf(ts),
        };
        self.open_with(meta, vis)
    }

    /// Whether the catalog's cached logical size, flushed by `xid`, can be
    /// trusted under `vis`. The catalog is not MVCC: `flush` writes the
    /// size (stamped with the writer's XID) whether or not that
    /// transaction goes on to commit, so a snapshot reader must only
    /// believe a size cached by a transaction it can see — its own, or
    /// one committed within its snapshot. Everything else (aborted, still
    /// in progress, committed after the snapshot, or any time-travel
    /// open) forces a recount from visible chunks.
    fn size_is_visible(&self, xid: Xid, vis: &Visibility) -> bool {
        match vis {
            Visibility::Raw => true,
            Visibility::AsOf(_) => false,
            // No stamp: the size is the zero written at create time.
            Visibility::Snapshot { own, .. } if xid == Xid::INVALID || xid == *own => true,
            Visibility::Snapshot { snapshot, .. } => {
                self.env.txns().status(xid) == TxnStatus::Committed
                    && !snapshot.considers_running(xid)
            }
        }
    }

    fn open_with(&self, meta: LoMeta, vis: Visibility) -> Result<Box<dyn LoBackend>> {
        let id = meta.id;
        let time_travel = matches!(vis, Visibility::AsOf(_));
        let size_trusted = self.size_is_visible(meta.size_xid, &vis);
        match meta.kind {
            LoKind::UFile => {
                let path = meta.path.as_ref().ok_or(LoError::NotFound(id))?;
                let file = NativeFile::open(path, self.env.sim().clone(), false)?;
                Ok(Box::new(UFileBackend::new(file)))
            }
            LoKind::PFile => {
                let path = meta.path.as_ref().ok_or(LoError::NotFound(id))?;
                let file = NativeFile::open(path, self.env.sim().clone(), false)?;
                Ok(Box::new(PFileBackend::new(file)))
            }
            LoKind::FChunk => {
                let heap = Heap::open_oid(&self.env, meta.data_rel, meta.smgr);
                let index = BTree::open_oid(&self.env, meta.idx_rel, meta.smgr);
                let mut backend = FChunkBackend::new(
                    Arc::clone(&self.env),
                    id,
                    heap,
                    index,
                    meta.codec,
                    vis,
                    meta.size,
                    !time_travel,
                    meta.chunk_size,
                );
                if !size_trusted {
                    let size = backend.compute_size()?;
                    backend.set_size(size);
                }
                Ok(Box::new(backend))
            }
            LoKind::VSegment => {
                let store_heap = Heap::open_oid(&self.env, meta.data_rel, meta.smgr);
                let store_index = BTree::open_oid(&self.env, meta.idx_rel, meta.smgr);
                let mut store = FChunkBackend::new(
                    Arc::clone(&self.env),
                    id,
                    store_heap,
                    store_index,
                    CodecKind::None,
                    vis.clone(),
                    meta.store_size,
                    false,
                    meta.chunk_size,
                );
                if !size_trusted {
                    let size = store.compute_size()?;
                    store.set_size(size);
                }
                let seg_heap = Heap::open_oid(&self.env, meta.seg_rel, meta.smgr);
                let seg_index = BTree::open_oid(&self.env, meta.seg_idx_rel, meta.smgr);
                let mut backend = VSegBackend::new(
                    Arc::clone(&self.env),
                    seg_heap,
                    seg_index,
                    store,
                    &meta,
                    vis,
                    !time_travel,
                );
                if !size_trusted {
                    let size = backend.compute_size()?;
                    backend.set_size(size);
                }
                Ok(Box::new(backend))
            }
        }
    }

    /// Remove a large object: its component relations, its DBMS-owned file
    /// (p-file), and its catalog entry. A u-file's host file belongs to the
    /// user and is left in place.
    pub fn unlink(&self, id: LoId) -> Result<()> {
        let meta = self.meta(id)?;
        match meta.kind {
            LoKind::UFile => {}
            LoKind::PFile => {
                if let Some(path) = &meta.path {
                    if path.exists() {
                        std::fs::remove_file(path)?;
                    }
                }
            }
            LoKind::FChunk => {
                Heap::open_oid(&self.env, meta.data_rel, meta.smgr).drop_storage()?;
                Heap::open_oid(&self.env, meta.idx_rel, meta.smgr).drop_storage()?;
            }
            LoKind::VSegment => {
                for rel in [meta.data_rel, meta.idx_rel, meta.seg_rel, meta.seg_idx_rel] {
                    Heap::open_oid(&self.env, rel, meta.smgr).drop_storage()?;
                }
            }
        }
        self.env.catalog().drop_class(&lo_class_name(id))?;
        Ok(())
    }

    /// Physical storage breakdown — one Figure 1 row.
    pub fn storage_breakdown(&self, id: LoId) -> Result<LoStorage> {
        let meta = self.meta(id)?;
        match meta.kind {
            LoKind::UFile | LoKind::PFile => {
                let path = meta.path.as_ref().ok_or(LoError::NotFound(id))?;
                let len = std::fs::metadata(path)?.len();
                Ok(LoStorage { data_bytes: len, map_bytes: 0, index_bytes: 0 })
            }
            LoKind::FChunk => {
                let heap = Heap::open_oid(&self.env, meta.data_rel, meta.smgr);
                let index = BTree::open_oid(&self.env, meta.idx_rel, meta.smgr);
                Ok(LoStorage {
                    data_bytes: heap.size_bytes()?,
                    map_bytes: 0,
                    index_bytes: index.size_bytes()?,
                })
            }
            LoKind::VSegment => {
                let store_heap = Heap::open_oid(&self.env, meta.data_rel, meta.smgr);
                let seg_heap = Heap::open_oid(&self.env, meta.seg_rel, meta.smgr);
                let seg_index = BTree::open_oid(&self.env, meta.seg_idx_rel, meta.smgr);
                Ok(LoStorage {
                    data_bytes: store_heap.size_bytes()?,
                    map_bytes: seg_heap.size_bytes()?,
                    index_bytes: seg_index.size_bytes()?,
                })
            }
        }
    }

    /// Copy a host file's contents into a new large object (the classic
    /// `lo_import`). The copy is chunked — neither side is materialized.
    pub fn import_file(
        &self,
        txn: &Txn,
        spec: &LoSpec,
        host_path: impl AsRef<std::path::Path>,
    ) -> Result<LoId> {
        let id = self.create(txn, spec)?;
        let mut src = std::fs::File::open(host_path)?;
        let mut handle = self.open(txn, id, OpenMode::ReadWrite)?;
        let mut buf = vec![0u8; 65536];
        let mut offset = 0u64;
        loop {
            let n = std::io::Read::read(&mut src, &mut buf)?;
            if n == 0 {
                break;
            }
            handle.write_at(offset, &buf[..n])?;
            offset += n as u64;
        }
        handle.close()?;
        Ok(id)
    }

    /// Copy a large object's contents into a host file (the classic
    /// `lo_export`). Returns bytes written.
    pub fn export_file(
        &self,
        txn: &Txn,
        id: LoId,
        host_path: impl AsRef<std::path::Path>,
    ) -> Result<u64> {
        let mut handle = self.open(txn, id, OpenMode::ReadOnly)?;
        let mut dst = std::fs::File::create(host_path)?;
        let mut buf = vec![0u8; 65536];
        let mut offset = 0u64;
        loop {
            let n = handle.read_at(offset, &mut buf)?;
            if n == 0 {
                break;
            }
            std::io::Write::write_all(&mut dst, &buf[..n])?;
            offset += n as u64;
        }
        handle.close()?;
        Ok(offset)
    }

    /// Create a temporary large object (§5): function results too large for
    /// the stack live here until the query completes.
    pub fn create_temp(&self, txn: &Txn, spec: &LoSpec) -> Result<LoId> {
        let id = self.create(txn, spec)?;
        self.temps.register(id);
        Ok(id)
    }

    /// Promote a temporary object to permanent (a query returned it to the
    /// user, who stored it in a class).
    pub fn keep_temp(&self, id: LoId) -> bool {
        self.temps.unregister(id)
    }

    /// Garbage-collect all temporary objects — "temporary large objects
    /// must be garbage-collected in the same way as temporary classes after
    /// the query has completed" (§5). Returns objects reclaimed.
    pub fn gc_temps(&self) -> Result<usize> {
        let mut ids = self.temps.drain().into_iter();
        let mut n = 0;
        while let Some(id) = ids.next() {
            if let Err(e) = self.reclaim(id) {
                // The caller hears about this one; it and the rest of
                // the batch stay tracked for the next sweep.
                self.temps.register(id);
                ids.for_each(|id| self.temps.register(id));
                return Err(e);
            }
            n += 1;
        }
        Ok(n)
    }

    /// Reclaim one temporary: `Ok(false)` if `id` is not one (it was
    /// promoted, or a sweep already took it). A failed unlink leaves it
    /// tracked, for the next sweep to retry.
    pub fn gc_temp(&self, id: LoId) -> Result<bool> {
        if !self.temps.unregister(id) {
            return Ok(false);
        }
        self.reclaim(id).inspect_err(|_| self.temps.register(id))?;
        Ok(true)
    }

    /// Unlink a temporary the registry no longer tracks. One somebody
    /// already unlinked explicitly counts as reclaimed.
    fn reclaim(&self, id: LoId) -> Result<()> {
        match self.unlink(id) {
            Ok(()) | Err(LoError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Number of live temporaries (testing/diagnostics).
    // LINT: allow(R14, temporary-object GC is asserted through it)
    pub fn temp_count(&self) -> usize {
        self.temps.len()
    }
}
