//! The Inversion file system proper.

use crate::path::{components, split_parent};
use crate::{InvError, Result};
use pglo_adt::datum::{decode_row, encode_row};
use pglo_adt::Datum;
use pglo_btree::keys::{u64_bytes_key, u64_key};
use pglo_btree::{BTree, ScanStart};
use pglo_core::{LoHandle, LoId, LoSpec, LoStore, OpenMode, UserId};
use pglo_heap::{AccessHint, Heap, StorageEnv};
use pglo_pages::Tid;
use pglo_txn::{Txn, Visibility};
use std::collections::HashMap;
use std::sync::Arc;

/// The root directory's well-known file id. Never allocated to user files
/// (allocation starts at 1000).
pub const ROOT_ID: u64 = 1;

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The name.
    pub name: String,
    /// The file id.
    pub file_id: u64,
    /// The is dir.
    pub is_dir: bool,
}

/// File metadata — the paper's FILESTAT class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// The file id.
    pub file_id: u64,
    /// The owner.
    pub owner: UserId,
    /// The mode.
    pub mode: u32,
    /// Logical timestamps (transaction commit counter domain).
    pub atime: u64,
    /// The mtime.
    pub mtime: u64,
    /// The size.
    pub size: u64,
    /// The is dir.
    pub is_dir: bool,
}

struct DirRow {
    name: String,
    file_id: u64,
    parent: u64,
    is_dir: bool,
}

impl DirRow {
    fn encode(&self) -> Vec<u8> {
        encode_row(&[
            Datum::Text(self.name.clone()),
            Datum::Int8(self.file_id as i64),
            Datum::Int8(self.parent as i64),
            Datum::Bool(self.is_dir),
        ])
    }

    fn decode(data: &[u8]) -> Result<DirRow> {
        let row = decode_row(data)?;
        match row.as_slice() {
            [Datum::Text(name), Datum::Int8(fid), Datum::Int8(parent), Datum::Bool(is_dir)] => {
                Ok(DirRow {
                    name: name.clone(),
                    file_id: *fid as u64,
                    parent: *parent as u64,
                    is_dir: *is_dir,
                })
            }
            _ => Err(InvError::BadPath("malformed DIRECTORY row".into())),
        }
    }
}

fn encode_stat(s: &FileStat) -> Vec<u8> {
    encode_row(&[
        Datum::Int8(s.file_id as i64),
        Datum::Int4(s.owner.0 as i32),
        Datum::Int4(s.mode as i32),
        Datum::Int8(s.atime as i64),
        Datum::Int8(s.mtime as i64),
        Datum::Int8(s.size as i64),
        Datum::Bool(s.is_dir),
    ])
}

fn decode_stat(data: &[u8]) -> Result<FileStat> {
    let row = decode_row(data)?;
    match row.as_slice() {
        [Datum::Int8(fid), Datum::Int4(owner), Datum::Int4(mode), Datum::Int8(at), Datum::Int8(mt), Datum::Int8(sz), Datum::Bool(is_dir)] => {
            Ok(FileStat {
                file_id: *fid as u64,
                owner: UserId(*owner as u32),
                mode: *mode as u32,
                atime: *at as u64,
                mtime: *mt as u64,
                size: *sz as u64,
                is_dir: *is_dir,
            })
        }
        _ => Err(InvError::BadPath("malformed FILESTAT row".into())),
    }
}

/// The file system. One per database; cheap to share behind an `Arc`.
pub struct InversionFs {
    env: Arc<StorageEnv>,
    store: Arc<LoStore>,
    dir_heap: Heap,
    dir_idx: BTree,
    stat_heap: Heap,
    stat_idx: BTree,
    storage_heap: Heap,
    storage_idx: BTree,
    /// Spec used for file-content large objects (implementation + codec +
    /// device — Inversion "can use either the f-chunk or v-segment large
    /// object implementations for file storage", §10).
    file_spec: LoSpec,
}

const DIR_CLASS: &str = "INV_DIRECTORY";
const STAT_CLASS: &str = "INV_FILESTAT";
const STORAGE_CLASS: &str = "INV_STORAGE";

impl InversionFs {
    /// Open (creating on first use) the Inversion classes in `env`, storing
    /// file contents per `file_spec`.
    pub fn open(env: &Arc<StorageEnv>, store: Arc<LoStore>, file_spec: LoSpec) -> Result<Self> {
        let fresh = env.catalog().get(DIR_CLASS).is_none();
        let open_class = |name: &str, schema: &str| -> Result<(Heap, BTree)> {
            match env.catalog().get(name) {
                Some(meta) => {
                    let idx_oid: u64 = meta
                        .props
                        .get("index_oid")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| InvError::BadPath(format!("{name}: missing index")))?;
                    Ok((Heap::open(env, name)?, BTree::open_oid(env, idx_oid, meta.smgr_id())))
                }
                None => {
                    let smgr = file_spec.smgr.unwrap_or_else(|| env.disk_id());
                    let idx = BTree::create_anonymous(env, smgr)?;
                    let mut props = HashMap::new();
                    props.insert("schema".to_string(), schema.to_string());
                    props.insert("index_oid".to_string(), idx.rel().to_string());
                    let heap = Heap::create(env, name, smgr, props)?;
                    Ok((heap, idx))
                }
            }
        };
        let (dir_heap, dir_idx) =
            open_class(DIR_CLASS, "file_name:text,file_id:int8,parent_id:int8,is_dir:bool")?;
        let (stat_heap, stat_idx) = open_class(
            STAT_CLASS,
            "file_id:int8,owner:int4,mode:int4,atime:int8,mtime:int8,size:int8,is_dir:bool",
        )?;
        let (storage_heap, storage_idx) =
            open_class(STORAGE_CLASS, "file_id:int8,large_object:int8")?;
        let fs = Self {
            env: Arc::clone(env),
            store,
            dir_heap,
            dir_idx,
            stat_heap,
            stat_idx,
            storage_heap,
            storage_idx,
            file_spec,
        };
        if fresh {
            // Bootstrap the root directory.
            let txn = fs.env.begin();
            fs.insert_dir_row(
                &txn,
                DirRow { name: String::new(), file_id: ROOT_ID, parent: 0, is_dir: true },
            )?;
            fs.insert_stat(
                &txn,
                FileStat {
                    file_id: ROOT_ID,
                    owner: UserId::DBA,
                    mode: 0o755,
                    atime: 0,
                    mtime: 0,
                    size: 0,
                    is_dir: true,
                },
            )?;
            txn.commit();
        }
        Ok(fs)
    }

    fn now(&self) -> u64 {
        self.env.txns().current_timestamp()
    }

    fn insert_dir_row(&self, txn: &Txn, row: DirRow) -> Result<()> {
        let tid = self.dir_heap.insert(txn, &row.encode())?;
        self.dir_idx.insert(&u64_bytes_key(row.parent, row.name.as_bytes()), tid)?;
        Ok(())
    }

    fn insert_stat(&self, txn: &Txn, stat: FileStat) -> Result<()> {
        let tid = self.stat_heap.insert(txn, &encode_stat(&stat))?;
        self.stat_idx.insert(&u64_key(stat.file_id), tid)?;
        Ok(())
    }

    /// The visible DIRECTORY row for `(parent, name)`.
    fn dir_lookup(
        &self,
        vis: &Visibility,
        parent: u64,
        name: &str,
    ) -> Result<Option<(Tid, DirRow)>> {
        let key = u64_bytes_key(parent, name.as_bytes());
        let mut rows = self.dir_idx.visible(&self.dir_heap, &key, vis, AccessHint::Random)?;
        let Some((tid, payload)) = rows.next().transpose()? else { return Ok(None) };
        Ok(Some((tid, DirRow::decode(&payload)?)))
    }

    fn stat_lookup(&self, vis: &Visibility, file_id: u64) -> Result<Option<(Tid, FileStat)>> {
        let key = u64_key(file_id);
        let mut rows = self.stat_idx.visible(&self.stat_heap, &key, vis, AccessHint::Random)?;
        let Some((tid, payload)) = rows.next().transpose()? else { return Ok(None) };
        Ok(Some((tid, decode_stat(&payload)?)))
    }

    fn storage_lookup(&self, vis: &Visibility, file_id: u64) -> Result<Option<(Tid, LoId)>> {
        let key = u64_key(file_id);
        for row in self.storage_idx.visible(&self.storage_heap, &key, vis, AccessHint::Random)? {
            let (tid, payload) = row?;
            if let [Datum::Int8(_), Datum::Int8(lo)] = decode_row(&payload)?.as_slice() {
                return Ok(Some((tid, LoId(*lo as u64))));
            }
        }
        Ok(None)
    }

    /// Resolve a path to `(file_id, is_dir)` under a visibility.
    pub fn resolve_vis(&self, vis: &Visibility, path: &str) -> Result<(u64, bool)> {
        let parts = components(path)?;
        let mut cur = (ROOT_ID, true);
        for part in parts {
            if !cur.1 {
                return Err(InvError::NotADirectory(path.to_string()));
            }
            match self.dir_lookup(vis, cur.0, part)? {
                Some((_, row)) => cur = (row.file_id, row.is_dir),
                None => return Err(InvError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Resolve within a transaction.
    pub fn resolve(&self, txn: &Txn, path: &str) -> Result<(u64, bool)> {
        self.resolve_vis(&Visibility::for_txn(txn), path)
    }

    /// Create a directory. Parents must exist.
    pub fn mkdir(&self, txn: &Txn, path: &str) -> Result<u64> {
        let vis = Visibility::for_txn(txn);
        let (parent_parts, name) = split_parent(path)?;
        let parent = self.resolve_parts(&vis, &parent_parts, path)?;
        if self.dir_lookup(&vis, parent, name)?.is_some() {
            return Err(InvError::Exists(path.to_string()));
        }
        let file_id = self.env.catalog().alloc_oid()?;
        self.insert_dir_row(txn, DirRow { name: name.to_string(), file_id, parent, is_dir: true })?;
        self.insert_stat(
            txn,
            FileStat {
                file_id,
                owner: UserId::DBA,
                mode: 0o755,
                atime: self.now(),
                mtime: self.now(),
                size: 0,
                is_dir: true,
            },
        )?;
        Ok(file_id)
    }

    fn resolve_parts(&self, vis: &Visibility, parts: &[&str], full: &str) -> Result<u64> {
        let chain = self.resolve_chain(vis, parts, full)?;
        chain.last().copied().ok_or_else(|| InvError::NotFound(full.to_string()))
    }

    /// Resolve a directory path, returning every file id on the way down
    /// (root first). Used by `rename` to refuse moving a directory into
    /// its own subtree.
    fn resolve_chain(&self, vis: &Visibility, parts: &[&str], full: &str) -> Result<Vec<u64>> {
        let mut chain = vec![ROOT_ID];
        let mut cur = ROOT_ID;
        for part in parts {
            match self.dir_lookup(vis, cur, part)? {
                Some((_, row)) if row.is_dir => {
                    cur = row.file_id;
                    chain.push(cur);
                }
                Some(_) => return Err(InvError::NotADirectory(full.to_string())),
                None => return Err(InvError::NotFound(full.to_string())),
            }
        }
        Ok(chain)
    }

    /// Create an empty file, returning its id.
    pub fn create(&self, txn: &Txn, path: &str) -> Result<u64> {
        self.create_owned(txn, path, UserId::DBA, 0o644)
    }

    /// Create with explicit owner and mode.
    pub fn create_owned(&self, txn: &Txn, path: &str, owner: UserId, mode: u32) -> Result<u64> {
        let vis = Visibility::for_txn(txn);
        let (parent_parts, name) = split_parent(path)?;
        let parent = self.resolve_parts(&vis, &parent_parts, path)?;
        if self.dir_lookup(&vis, parent, name)?.is_some() {
            return Err(InvError::Exists(path.to_string()));
        }
        let file_id = self.env.catalog().alloc_oid()?;
        let mut spec = self.file_spec.clone();
        spec.owner = owner;
        let lo = self.store.create(txn, &spec)?;
        let storage_tid = self
            .storage_heap
            .insert(txn, &encode_row(&[Datum::Int8(file_id as i64), Datum::Int8(lo.0 as i64)]))?;
        self.storage_idx.insert(&u64_key(file_id), storage_tid)?;
        self.insert_dir_row(
            txn,
            DirRow { name: name.to_string(), file_id, parent, is_dir: false },
        )?;
        self.insert_stat(
            txn,
            FileStat {
                file_id,
                owner,
                mode,
                atime: self.now(),
                mtime: self.now(),
                size: 0,
                is_dir: false,
            },
        )?;
        Ok(file_id)
    }

    /// Open a file for reading/writing.
    pub fn open_file<'a>(
        &'a self,
        txn: &'a Txn,
        path: &str,
        mode: OpenMode,
    ) -> Result<InvFile<'a>> {
        let vis = Visibility::for_txn(txn);
        let (file_id, is_dir) = self.resolve_vis(&vis, path)?;
        if is_dir {
            return Err(InvError::IsADirectory(path.to_string()));
        }
        let (_, lo) = self
            .storage_lookup(&vis, file_id)?
            .ok_or_else(|| InvError::NotFound(format!("{path} (no STORAGE row)")))?;
        let handle = self.store.open(txn, lo, mode)?;
        Ok(InvFile { fs: self, txn, file_id, handle: Some(handle), wrote: false })
    }

    /// Time-travel open: the file's contents exactly as of `ts`. The path
    /// is resolved against the directory tree as of `ts` too.
    // LINT: allow(R14, Inversion time travel; examples/inversion_shell.rs reads files as of a timestamp)
    pub fn open_file_as_of(&self, path: &str, ts: u64) -> Result<LoHandle<'static>> {
        let vis = Visibility::AsOf(ts);
        let (file_id, is_dir) = self.resolve_vis(&vis, path)?;
        if is_dir {
            return Err(InvError::IsADirectory(path.to_string()));
        }
        let (_, lo) = self
            .storage_lookup(&vis, file_id)?
            .ok_or_else(|| InvError::NotFound(path.to_string()))?;
        Ok(self.store.open_as_of(lo, ts)?)
    }

    /// List a directory.
    pub fn readdir(&self, txn: &Txn, path: &str) -> Result<Vec<DirEntry>> {
        self.readdir_vis(&Visibility::for_txn(txn), path)
    }

    /// List a directory under any visibility (including time travel).
    pub fn readdir_vis(&self, vis: &Visibility, path: &str) -> Result<Vec<DirEntry>> {
        let _span = obs::span!("inv.readdir");
        let (dir_id, is_dir) = self.resolve_vis(vis, path)?;
        if !is_dir {
            return Err(InvError::NotADirectory(path.to_string()));
        }
        let prefix = u64_key(dir_id);
        let mut scan = self.dir_idx.scan(ScanStart::AtOrAfter(u64_bytes_key(dir_id, b"")))?;
        let mut out: Vec<DirEntry> = Vec::new();
        while let Some((key, tid)) = scan.next_entry()? {
            if key.len() < 8 || key[..8] != prefix {
                break;
            }
            // Directory rows were appended in insertion order, so a full
            // listing walks heap blocks mostly forward: let the pool read
            // ahead of the scan.
            if let Some(payload) = self.dir_heap.fetch_hinted(tid, vis, AccessHint::Sequential)? {
                let row = DirRow::decode(&payload)?;
                out.push(DirEntry { name: row.name, file_id: row.file_id, is_dir: row.is_dir });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out.dedup_by(|a, b| a.name == b.name);
        Ok(out)
    }

    /// File metadata.
    pub fn stat(&self, txn: &Txn, path: &str) -> Result<FileStat> {
        let vis = Visibility::for_txn(txn);
        let (file_id, _) = self.resolve_vis(&vis, path)?;
        self.stat_lookup(&vis, file_id)?
            .map(|(_, s)| s)
            .ok_or_else(|| InvError::NotFound(format!("{path} (no FILESTAT row)")))
    }

    fn stat_update(
        &self,
        txn: &Txn,
        file_id: u64,
        update: impl FnOnce(&mut FileStat),
    ) -> Result<()> {
        let vis = Visibility::for_txn(txn);
        let (tid, mut stat) = self
            .stat_lookup(&vis, file_id)?
            .ok_or_else(|| InvError::NotFound(format!("file id {file_id}")))?;
        update(&mut stat);
        let new_tid = self.stat_heap.update(txn, tid, &encode_stat(&stat))?;
        self.stat_idx.insert(&u64_key(file_id), new_tid)?;
        Ok(())
    }

    /// Change permission bits.
    // LINT: allow(R14, Inversion's file-system API; the Inversion tests drive it)
    pub fn chmod(&self, txn: &Txn, path: &str, mode: u32) -> Result<()> {
        let (file_id, _) = self.resolve(txn, path)?;
        self.stat_update(txn, file_id, |s| s.mode = mode)
    }

    /// Change the owner.
    // LINT: allow(R14, Inversion's file-system API; the Inversion tests drive it)
    pub fn chown(&self, txn: &Txn, path: &str, owner: UserId) -> Result<()> {
        let (file_id, _) = self.resolve(txn, path)?;
        self.stat_update(txn, file_id, |s| s.owner = owner)
    }

    /// Remove a file. Its metadata rows are deleted (no-overwrite: they
    /// remain visible to time travel); the underlying large object is kept
    /// so `open_file_as_of` can still read historical contents.
    pub fn unlink(&self, txn: &Txn, path: &str) -> Result<()> {
        let vis = Visibility::for_txn(txn);
        let (parent_parts, name) = split_parent(path)?;
        let parent = self.resolve_parts(&vis, &parent_parts, path)?;
        let (dir_tid, row) = self
            .dir_lookup(&vis, parent, name)?
            .ok_or_else(|| InvError::NotFound(path.to_string()))?;
        if row.is_dir {
            return Err(InvError::IsADirectory(path.to_string()));
        }
        self.dir_heap.delete(txn, dir_tid)?;
        if let Some((stat_tid, _)) = self.stat_lookup(&vis, row.file_id)? {
            self.stat_heap.delete(txn, stat_tid)?;
        }
        if let Some((storage_tid, _)) = self.storage_lookup(&vis, row.file_id)? {
            self.storage_heap.delete(txn, storage_tid)?;
        }
        Ok(())
    }

    /// Remove an empty directory.
    // LINT: allow(R14, Inversion's file-system API; the Inversion tests drive it)
    pub fn rmdir(&self, txn: &Txn, path: &str) -> Result<()> {
        let vis = Visibility::for_txn(txn);
        let (parent_parts, name) = split_parent(path)?;
        let parent = self.resolve_parts(&vis, &parent_parts, path)?;
        let (dir_tid, row) = self
            .dir_lookup(&vis, parent, name)?
            .ok_or_else(|| InvError::NotFound(path.to_string()))?;
        if !row.is_dir {
            return Err(InvError::NotADirectory(path.to_string()));
        }
        if !self.readdir(txn, path)?.is_empty() {
            return Err(InvError::NotEmpty(path.to_string()));
        }
        self.dir_heap.delete(txn, dir_tid)?;
        if let Some((stat_tid, _)) = self.stat_lookup(&vis, row.file_id)? {
            self.stat_heap.delete(txn, stat_tid)?;
        }
        Ok(())
    }

    /// Rename/move a file or directory.
    pub fn rename(&self, txn: &Txn, from: &str, to: &str) -> Result<()> {
        let vis = Visibility::for_txn(txn);
        let (from_parent_parts, from_name) = split_parent(from)?;
        let from_parent = self.resolve_parts(&vis, &from_parent_parts, from)?;
        let (tid, mut row) = self
            .dir_lookup(&vis, from_parent, from_name)?
            .ok_or_else(|| InvError::NotFound(from.to_string()))?;
        let (to_parent_parts, to_name) = split_parent(to)?;
        let to_chain = self.resolve_chain(&vis, &to_parent_parts, to)?;
        let to_parent = *to_chain.last().ok_or_else(|| InvError::NotFound(to.to_string()))?;
        if self.dir_lookup(&vis, to_parent, to_name)?.is_some() {
            return Err(InvError::Exists(to.to_string()));
        }
        // A directory must not move into its own subtree (that would
        // disconnect it from the root forever).
        if row.is_dir && to_chain.contains(&row.file_id) {
            return Err(InvError::BadPath(format!("cannot move {from} inside itself ({to})")));
        }
        row.name = to_name.to_string();
        row.parent = to_parent;
        let new_tid = self.dir_heap.update(txn, tid, &row.encode())?;
        self.dir_idx.insert(&u64_bytes_key(to_parent, to_name.as_bytes()), new_tid)?;
        Ok(())
    }

    /// Permanently reclaim storage for files unlinked at or before
    /// `horizon`: their large objects are removed and the metadata classes
    /// vacuumed. This is the explicit point at which file time travel
    /// before `horizon` is given up (mirroring `Heap::vacuum`).
    ///
    /// Returns the number of file objects reclaimed.
    // LINT: allow(R14, the horizon-bounded drop of unlinked files' storage; the Inversion tests drive it)
    pub fn purge(&self, horizon: u64) -> Result<usize> {
        let tm = self.env.txns();
        // Find STORAGE rows whose deletion committed at or before horizon:
        // those files are unlinked and invisible to every retained epoch.
        let mut doomed: Vec<LoId> = Vec::new();
        let rows: Vec<_> =
            self.storage_heap.scan(Visibility::Raw).collect::<std::result::Result<Vec<_>, _>>()?;
        for (tid, payload) in rows {
            let header = |hdr, _: &[u8]| hdr;
            let Some(hdr) =
                self.storage_heap.fetch_with(tid, &Visibility::Raw, AccessHint::Random, header)?
            else {
                continue;
            };
            let dead =
                hdr.xmax.is_valid() && matches!(tm.commit_ts(hdr.xmax), Some(ts) if ts <= horizon);
            if !dead {
                continue;
            }
            let row = decode_row(&payload)?;
            if let [Datum::Int8(_), Datum::Int8(lo)] = row.as_slice() {
                doomed.push(LoId(*lo as u64));
            }
        }
        let purged = doomed.len();
        for lo in doomed {
            match self.store.unlink(lo) {
                Ok(()) => {}
                // Already gone (double purge): fine.
                Err(pglo_core::LoError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Reclaim the dead metadata rows themselves, each out of its index
        // first: a freed slot is reused, and an entry left behind would
        // resolve the dead name to whatever file lands there next.
        self.storage_heap.vacuum(horizon, |tid, row| -> Result<()> {
            let [Datum::Int8(file_id), Datum::Int8(_)] = decode_row(row)?[..] else {
                return Err(InvError::BadPath("malformed STORAGE row".into()));
            };
            self.storage_idx.delete(&u64_key(file_id as u64), tid)?;
            Ok(())
        })?;
        self.dir_heap.vacuum(horizon, |tid, row| -> Result<()> {
            let row = DirRow::decode(row)?;
            self.dir_idx.delete(&u64_bytes_key(row.parent, row.name.as_bytes()), tid)?;
            Ok(())
        })?;
        self.stat_heap.vacuum(horizon, |tid, row| -> Result<()> {
            self.stat_idx.delete(&u64_key(decode_stat(row)?.file_id), tid)?;
            Ok(())
        })?;
        Ok(purged)
    }

    /// The environment this file system lives in.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// The large-object store backing file contents.
    pub fn store(&self) -> &Arc<LoStore> {
        &self.store
    }
}

/// An open Inversion file: a large-object handle plus FILESTAT maintenance.
pub struct InvFile<'a> {
    fs: &'a InversionFs,
    txn: &'a Txn,
    file_id: u64,
    handle: Option<LoHandle<'a>>,
    wrote: bool,
}

impl<'a> InvFile<'a> {
    /// The open handle: `None` only inside [`InvFile::finish`] and after.
    fn h(&mut self) -> Result<&mut LoHandle<'a>> {
        self.handle
            .as_mut()
            .ok_or(InvError::Lo(pglo_core::LoError::Unsupported("file already closed")))
    }

    /// Read at the seek pointer.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let _span = obs::span!("inv.read");
        Ok(self.h()?.read(buf)?)
    }

    /// Write at the seek pointer.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        let _span = obs::span!("inv.write");
        self.wrote = true;
        Ok(self.h()?.write(data)?)
    }

    /// Read at an explicit offset without moving the seek pointer.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let _span = obs::span!("inv.read_at");
        Ok(self.h()?.read_at(offset, buf)?)
    }

    /// Write at an explicit offset without moving the seek pointer.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let _span = obs::span!("inv.write_at");
        self.wrote = true;
        Ok(self.h()?.write_at(offset, data)?)
    }

    /// Move the seek pointer.
    pub fn seek(&mut self, from: std::io::SeekFrom) -> Result<u64> {
        Ok(self.h()?.seek(from)?)
    }

    /// Current file size in bytes.
    pub fn size(&mut self) -> Result<u64> {
        Ok(self.h()?.size()?)
    }

    /// Read the whole file from the start.
    pub fn read_to_vec(&mut self) -> Result<Vec<u8>> {
        Ok(self.h()?.read_to_vec()?)
    }

    /// Flush contents and update FILESTAT (size, mtime) if written.
    pub fn close(mut self) -> Result<()> {
        self.finish()
    }

    fn finish(&mut self) -> Result<()> {
        let wrote = self.wrote;
        let size = if wrote { self.h()?.size()? } else { 0 };
        if let Some(handle) = self.handle.take() {
            handle.close()?;
        }
        if wrote {
            let now = self.fs.now();
            self.fs.stat_update(self.txn, self.file_id, |s| {
                s.size = size;
                s.mtime = now;
            })?;
        }
        self.wrote = false;
        Ok(())
    }
}

impl std::io::Read for InvFile<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        InvFile::read(self, buf).map_err(std::io::Error::other)
    }
}

impl std::io::Write for InvFile<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        InvFile::write(self, buf).map_err(std::io::Error::other)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl std::io::Seek for InvFile<'_> {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        InvFile::seek(self, pos).map_err(std::io::Error::other)
    }
}

impl Drop for InvFile<'_> {
    fn drop(&mut self) {
        if self.handle.is_some() {
            // Best-effort finish; use `finish()` to observe failures.
            if self.finish().is_err() {
                obs::counter!("inv.file.drop_finish.errors").add(1);
            }
        }
    }
}
