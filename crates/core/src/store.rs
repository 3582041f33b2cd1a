//! The large-object manager: create, open, time-travel open, unlink.

use crate::fchunk::FChunkBackend;
use crate::handle::{LoBackend, LoHandle, OpenMode};
use crate::meta::{LoKind, LoMeta, MetaTable};
use crate::pfile::PFileBackend;
use crate::temp::TempRegistry;
use crate::ufile::UFileBackend;
use crate::vsegment::VSegBackend;
use crate::{LoError, LoId, Result, UserId};
use pglo_btree::BTree;
use pglo_compress::CodecKind;
use pglo_heap::{Heap, StorageEnv};
use pglo_smgr::{FileClass, NativeFile, SmgrId, VFile};
use pglo_txn::{Txn, Visibility};
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
    /// An object of `kind`, the DBA's, on the environment's disk, with no
    /// codec and §6.3's chunk size.
    fn of(kind: LoKind) -> Self {
        let (codec, smgr, owner, path) = (CodecKind::None, None, UserId::DBA, None);
        Self { kind, codec, smgr, owner, path, chunk_size: crate::CHUNK_SIZE }
    }

    /// An f-chunk object with no compression — the workhorse default.
    pub fn fchunk() -> Self {
        Self::of(LoKind::FChunk)
    }

    /// A v-segment object with the given codec.
    pub fn vsegment(codec: CodecKind) -> Self {
        Self::of(LoKind::VSegment).with_codec(codec)
    }

    /// A u-file object at `path`.
    pub fn ufile(path: impl Into<PathBuf>) -> Self {
        Self { path: Some(path.into()), ..Self::of(LoKind::UFile) }
    }

    /// A p-file object (the store allocates the path via `newfilename`).
    pub fn pfile() -> Self {
        Self::of(LoKind::PFile)
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

/// The large-object manager.
pub struct LoStore {
    env: Arc<StorageEnv>,
    meta: MetaTable,
    temps: TempRegistry,
}

impl LoStore {
    /// An object manager over `env`, creating the metadata relations the
    /// first time a directory is opened.
    pub fn new(env: Arc<StorageEnv>) -> Result<Self> {
        Ok(Self { meta: MetaTable::open(&env)?, env, temps: TempRegistry::new() })
    }

    /// The backing environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// Allocate a DBMS-owned file path — the paper's `newfilename()` (§6.2).
    pub fn newfilename(&self, id: LoId) -> Result<PathBuf> {
        let dir = self.env.pfile_dir();
        self.env.vfs().create_dir(FileClass::Native, &dir)?;
        Ok(dir.join(format!("lo_{}", id.0)))
    }

    /// Create a large object per `spec`, returning its name. Its metadata
    /// row and its relation files are `txn`'s: until `txn` commits no
    /// other snapshot sees it, and an abort removes the files.
    pub fn create(&self, txn: &Txn, spec: &LoSpec) -> Result<LoId> {
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
                NativeFile::open(self.env.vfs(), &path, self.env.sim().clone(), true)?;
                meta.path = Some(path);
            }
            LoKind::PFile => {
                let path = self.newfilename(id)?;
                NativeFile::open(self.env.vfs(), &path, self.env.sim().clone(), true)?;
                meta.path = Some(path);
            }
            LoKind::FChunk | LoKind::VSegment => {
                // A heap and its index, and v-segment's segment heap and
                // its index: made in one logged create.
                let n = if spec.kind == LoKind::FChunk { 2 } else { 4 };
                let catalog = self.env.catalog();
                let rels: Vec<u64> =
                    (0..n).map(|_| catalog.alloc_oid()).collect::<std::result::Result<_, _>>()?;
                self.env.create_rels(txn, smgr, &rels)?;
                for &index in rels.iter().skip(1).step_by(2) {
                    BTree::create_empty(&self.env, index, smgr)?;
                }
                [meta.data_rel, meta.idx_rel] = [rels[0], rels[1]];
                if let [_, _, seg, seg_idx] = rels[..] {
                    [meta.seg_rel, meta.seg_idx_rel] = [seg, seg_idx];
                }
            }
        }
        self.meta.insert(txn, &meta)?;
        Ok(id)
    }

    /// The metadata of an object that is not unlinked, its creator's
    /// transaction committed or not.
    pub fn meta(&self, id: LoId) -> Result<LoMeta> {
        Ok(self.meta.get(id, &Visibility::Undeleted)?.1)
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
        let backend = self.open_backend(id, Visibility::for_txn(txn), mode, user)?;
        Ok(LoHandle::new(backend, mode, Some(txn)))
    }

    /// Time-travel open: the object exactly as of commit timestamp `ts`.
    /// Always read-only. Only f-chunk and v-segment support history — the
    /// file implementations have none (§6.1).
    // LINT: allow(R14, Inversion's open_file_as_of reads an old version through it)
    pub fn open_as_of(&self, id: LoId, ts: u64) -> Result<LoHandle<'static>> {
        let backend =
            self.open_backend(id, Visibility::AsOf(ts), OpenMode::ReadOnly, UserId::DBA)?;
        Ok(LoHandle::new(backend, OpenMode::ReadOnly, None))
    }

    /// The one open: resolve `id`'s metadata row as `vis` sees it (a
    /// transaction's snapshot, or as of a commit timestamp), check that
    /// `user` may open it in `mode` (a time-travel open reads only), and
    /// build its backend for `vis`.
    pub(crate) fn open_backend(
        &self,
        id: LoId,
        vis: Visibility,
        mode: OpenMode,
        user: UserId,
    ) -> Result<Box<dyn LoBackend>> {
        let (_, meta) = self.meta.get(id, &vis)?;
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
        if matches!(vis, Visibility::AsOf(_)) && matches!(meta.kind, LoKind::UFile | LoKind::PFile)
        {
            return Err(LoError::Unsupported(
                "time travel requires the f-chunk or v-segment implementation",
            ));
        }
        let env = Arc::clone(&self.env);
        let file = || {
            let path = meta.path.as_ref().ok_or(LoError::NotFound(id))?;
            Ok::<_, LoError>(NativeFile::open(self.env.vfs(), path, self.env.sim().clone(), false)?)
        };
        Ok(match meta.kind {
            LoKind::UFile => Box::new(UFileBackend::new(file()?)),
            LoKind::PFile => Box::new(PFileBackend::new(file()?)),
            LoKind::FChunk => Box::new(FChunkBackend::open(env, &meta, meta.codec, vis)),
            LoKind::VSegment => Box::new(VSegBackend::open(env, &meta, vis)),
        })
    }

    /// Remove a large object, whatever transaction created it, in a short
    /// transaction of its own that deletes its metadata row and drops its
    /// component relations: they live and die with the row, so they go
    /// when the delete commits, and stay if it does not. A p-file's host
    /// file is removed first; a u-file's belongs to the user and stays.
    pub fn unlink(&self, id: LoId) -> Result<()> {
        let (tid, meta) = self.meta.get(id, &Visibility::Undeleted)?;
        let rels = match meta.kind {
            LoKind::UFile | LoKind::PFile => &[][..],
            LoKind::FChunk => &[meta.data_rel, meta.idx_rel],
            LoKind::VSegment => &[meta.data_rel, meta.idx_rel, meta.seg_rel, meta.seg_idx_rel],
        };
        if let (LoKind::PFile, Some(path)) = (meta.kind, &meta.path) {
            if self.env.vfs().exists(FileClass::Native, path)? {
                self.env.vfs().remove_file(FileClass::Native, path)?;
            }
        }
        let txn = self.env.begin();
        self.env.drop_rels(&txn, meta.smgr, rels);
        self.meta.remove(&txn, tid)?;
        txn.try_commit()?;
        Ok(())
    }

    /// Physical storage breakdown — one Figure 1 row.
    pub fn storage_breakdown(&self, id: LoId) -> Result<LoStorage> {
        let meta = self.meta(id)?;
        match meta.kind {
            LoKind::UFile | LoKind::PFile => {
                let path = meta.path.as_ref().ok_or(LoError::NotFound(id))?;
                let len =
                    VFile::open(self.env.vfs(), path.clone(), FileClass::Native)?.file_len()?;
                Ok(LoStorage { data_bytes: len, map_bytes: 0, index_bytes: 0 })
            }
            // v-segment's map is its segment index's heap, and its index
            // bytes that index's B-tree: the byte store's is not counted.
            LoKind::FChunk | LoKind::VSegment => {
                let heap = |rel| Heap::open_oid(&self.env, rel, meta.smgr).size_bytes();
                let vseg = meta.kind == LoKind::VSegment;
                let index = if vseg { meta.seg_idx_rel } else { meta.idx_rel };
                Ok(LoStorage {
                    data_bytes: heap(meta.data_rel)?,
                    map_bytes: if vseg { heap(meta.seg_rel)? } else { 0 },
                    index_bytes: BTree::open_oid(&self.env, index, meta.smgr).size_bytes()?,
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the export target is the user's host file, not the store's durable state"
        )]
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
