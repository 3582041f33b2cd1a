//! The heap access method: no-overwrite tuple storage in a class.
//!
//! Updates never modify a committed tuple's payload in place: `update`
//! stamps the old version's `xmax` and inserts a new version, on the old
//! version's page when it fits there, so every historical version remains
//! on disk and time travel (§6.3) is a pure visibility question. `vacuum`
//! is the explicit, user-invoked point at which history older than a
//! horizon is discarded.

use crate::catalog::no_files;
use crate::env::StorageEnv;
use crate::tuple::{tuple_payload, TupleHeader, TUPLE_HEADER_SIZE};
use crate::{ClassKind, HeapError, Result};
use pglo_buffer::{AccessHint, PageKey};
use pglo_pages::{ItemFlag, Page, Tid, PAGE_SIZE};
use pglo_smgr::{RelFileId, SmgrError, SmgrId};
use pglo_txn::{tuple_visible, Txn, TxnStatus, Visibility};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Simulated CPU cost of locating and validating one tuple (executor
/// overhead the native-file path does not pay).
const FETCH_CPU_INSTR: u64 = 300;
/// Simulated CPU cost of forming and placing one tuple.
const INSERT_CPU_INSTR: u64 = 600;
/// Simulated CPU cost of examining one tuple during a scan.
const SCAN_CPU_INSTR: u64 = 150;

/// A handle to one heap class.
pub struct Heap {
    env: Arc<StorageEnv>,
    rel: RelFileId,
    smgr: SmgrId,
    /// Block where the last insert succeeded — the append-mostly fast path.
    insert_hint: AtomicU32,
}

impl Heap {
    /// Create a named heap class; the catalog makes its file and its row
    /// in one transaction.
    pub fn create(
        env: &Arc<StorageEnv>,
        name: &str,
        smgr: SmgrId,
        props: HashMap<String, String>,
    ) -> Result<Heap> {
        let meta = env.catalog().create_class(name, ClassKind::Heap, smgr, props, no_files)?;
        Ok(Self::open_oid(env, meta.oid, smgr))
    }

    /// Create an anonymous heap (no catalog name) in a transaction of its
    /// own, committed: no row names it. A create that a row names makes
    /// its files in the row's transaction ([`StorageEnv::create_rels`]).
    pub fn create_anonymous(env: &Arc<StorageEnv>, smgr: SmgrId) -> Result<Heap> {
        let (txn, oid) = (env.begin(), env.catalog().alloc_oid()?);
        env.create_rels(&txn, smgr, &[oid])?;
        txn.try_commit().map_err(|e| HeapError::Smgr(e.into()))?;
        Ok(Self::open_oid(env, oid, smgr))
    }

    /// Open the heap at a reserved `oid`, creating its relation if missing.
    pub fn open_or_create(env: &Arc<StorageEnv>, oid: u64, smgr: SmgrId) -> Result<Heap> {
        match env.switch().get(smgr)?.create(oid) {
            Ok(()) | Err(SmgrError::AlreadyExists(_)) => Ok(Self::open_oid(env, oid, smgr)),
            Err(e) => Err(e.into()),
        }
    }

    /// Open a named heap from the catalog.
    pub fn open(env: &Arc<StorageEnv>, name: &str) -> Result<Heap> {
        let meta = env
            .catalog()
            .get(name)
            .ok_or_else(|| HeapError::Catalog(format!("class \"{name}\" does not exist")))?;
        if meta.kind != ClassKind::Heap {
            return Err(HeapError::Catalog(format!("class \"{name}\" is not a heap")));
        }
        Ok(Heap {
            env: Arc::clone(env),
            rel: meta.oid,
            smgr: meta.smgr_id(),
            insert_hint: AtomicU32::new(0),
        })
    }

    /// Open a heap by OID (anonymous or named).
    pub fn open_oid(env: &Arc<StorageEnv>, oid: u64, smgr: SmgrId) -> Heap {
        Heap { env: Arc::clone(env), rel: oid, smgr, insert_hint: AtomicU32::new(0) }
    }

    /// This heap's relation OID.
    pub fn rel(&self) -> RelFileId {
        self.rel
    }

    /// The storage manager this heap lives on.
    pub fn smgr(&self) -> SmgrId {
        self.smgr
    }

    /// The environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// Largest payload one tuple can carry.
    pub fn max_payload() -> usize {
        Page::<&[u8]>::max_item_size(0) - TUPLE_HEADER_SIZE
    }

    fn key(&self, block: u32) -> PageKey {
        PageKey::new(self.smgr, self.rel, block)
    }

    /// Number of blocks allocated.
    pub fn nblocks(&self) -> Result<u32> {
        Ok(self.env.switch().get(self.smgr)?.nblocks(self.rel)?)
    }

    /// Physical size in bytes (the Figure 1 unit).
    pub fn size_bytes(&self) -> Result<u64> {
        Ok(self.nblocks()? as u64 * PAGE_SIZE as u64)
    }

    /// Insert a tuple, returning its TID.
    pub fn insert(&self, txn: &Txn, payload: &[u8]) -> Result<Tid> {
        self.insert_parts(txn, &[], payload)
    }

    /// Insert the tuple whose payload is `head` followed by `body`,
    /// returning its TID. The tuple header and both parts are copied
    /// straight into the page, once.
    pub fn insert_parts(&self, txn: &Txn, head: &[u8], body: &[u8]) -> Result<Tid> {
        let (hdr, len) = new_header(txn, head, body)?;
        let img = [&hdr[..], head, body];
        self.env.sim().charge_cpu(INSERT_CPU_INSTR);
        let nblocks = self.nblocks()?;
        // Try the hinted block, then the last block, then extend. A probe
        // checks for room under the read latch, by `place`'s rule, and
        // leaves a page without it alone: the write latch would copy the
        // page as the baseline of a change that never comes.
        let hint = self.insert_hint.load(Ordering::Relaxed);
        let last = nblocks.checked_sub(1).filter(|&last| last != hint);
        for block in [(hint < nblocks).then_some(hint), last].into_iter().flatten() {
            let pinned = self.env.pool().pin(self.key(block))?;
            let room = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                page.fits(len) || page.reclaimable() >= len
            });
            if !room {
                continue;
            }
            if let Some(slot) =
                pinned.with_write(|buf| place(&mut Page::new(&mut buf[..]), &img, len))
            {
                self.insert_hint.store(block, Ordering::Relaxed);
                return Ok(Tid::new(block, slot));
            }
        }
        // No room: extend the relation by a block that holds the tuple
        // from the start, so no other inserter can fill it first.
        let mut slot = None;
        let (block, _) = self.env.pool().new_page(self.smgr, self.rel, |buf| {
            let mut page = Page::new(&mut buf[..]);
            page.init::<0>();
            slot = page.add_item(&img);
        })?;
        self.insert_hint.store(block, Ordering::Relaxed);
        let max = Page::<&[u8]>::max_item_size(0);
        Ok(Tid::new(block, slot.ok_or(HeapError::TupleTooLarge { size: len, max })?))
    }

    /// Fetch the payload at `tid` if visible under `vis`.
    pub fn fetch(&self, tid: Tid, vis: &Visibility) -> Result<Option<Vec<u8>>> {
        self.fetch_hinted(tid, vis, AccessHint::Random)
    }

    /// [`Self::fetch`] with an access-pattern hint: callers walking tuples
    /// in ascending block order (LO chunk readers, Inversion directory
    /// scans) pass [`AccessHint::Sequential`] so the buffer pool reads
    /// ahead of them.
    pub fn fetch_hinted(
        &self,
        tid: Tid,
        vis: &Visibility,
        hint: AccessHint,
    ) -> Result<Option<Vec<u8>>> {
        self.fetch_with(tid, vis, hint, |_, payload| payload.to_vec())
    }

    /// The one fetch that checks visibility: if the tuple at `tid` is
    /// visible under `vis`, hand its header and its payload — borrowed from
    /// the pinned page, not copied — to `f` and return what `f` returns;
    /// `None` (and `f` never runs) if it is not. The owned fetches above
    /// are this with a `to_vec`.
    ///
    /// `f` runs under the page's read latch, so it must not pin another
    /// page or take a lock.
    pub fn fetch_with<R>(
        &self,
        tid: Tid,
        vis: &Visibility,
        hint: AccessHint,
        f: impl FnOnce(TupleHeader, &[u8]) -> R,
    ) -> Result<Option<R>> {
        self.env.sim().charge_cpu(FETCH_CPU_INSTR);
        let nblocks = self.nblocks()?;
        if tid.block >= nblocks {
            return Ok(None);
        }
        let pinned = self.env.pool().pin_with_hint(self.key(tid.block), hint)?;
        Ok(pinned.with_read(|buf| {
            let page = Page::new(&buf[..]);
            let item = page.item(tid.slot)?;
            let hdr = TupleHeader::decode(item)?;
            tuple_visible(hdr.xmin, hdr.xmax, vis, self.env.txns())
                .then(|| f(hdr, tuple_payload(item)))
        }))
    }

    /// Stamp `tid` deleted by `txn` (the no-overwrite delete).
    ///
    /// Fails with [`HeapError::WriteConflict`] if another live or committed
    /// transaction already deleted it (first-updater-wins).
    pub fn delete(&self, txn: &Txn, tid: Tid) -> Result<()> {
        self.env.sim().charge_cpu(FETCH_CPU_INSTR);
        let pinned = self.pin_tuple_page(tid)?;
        pinned.with_write(|buf| self.stamp(&mut Page::new(&mut buf[..]), txn, tid))
    }

    /// Replace the tuple at `tid` with a new version; returns the new TID.
    /// The old version remains for time travel.
    pub fn update(&self, txn: &Txn, tid: Tid, payload: &[u8]) -> Result<Tid> {
        self.update_parts(txn, tid, &[], payload)
    }

    /// [`Self::update`] with the new version's payload in two parts, as
    /// [`Self::insert_parts`] takes it. Under one write latch on the old
    /// version's page, the old version is stamped as [`Self::delete`]
    /// stamps it (a conflict leaves the page as it was) and the new one is
    /// added to the same page if it fits there; otherwise it goes where
    /// [`Self::insert_parts`] puts it. The CPU charged is a delete's and
    /// an insert's either way.
    pub fn update_parts(&self, txn: &Txn, tid: Tid, head: &[u8], body: &[u8]) -> Result<Tid> {
        let (hdr, len) = new_header(txn, head, body)?;
        self.env.sim().charge_cpu(FETCH_CPU_INSTR);
        let slot = self.pin_tuple_page(tid)?.with_write(|buf| {
            let mut page = Page::new(&mut buf[..]);
            self.stamp(&mut page, txn, tid)?;
            Ok::<_, HeapError>(place(&mut page, &[&hdr[..], head, body], len))
        })?;
        match slot {
            Some(slot) => {
                self.env.sim().charge_cpu(INSERT_CPU_INSTR);
                Ok(Tid::new(tid.block, slot))
            }
            None => self.insert_parts(txn, head, body),
        }
    }

    /// Pin the page that holds `tid`, which must be inside the relation.
    fn pin_tuple_page(&self, tid: Tid) -> Result<pglo_buffer::PinnedPage<'_>> {
        if tid.block >= self.nblocks()? {
            return Err(HeapError::TupleNotFound { tid });
        }
        Ok(self.env.pool().pin(self.key(tid.block))?)
    }

    /// Stamp the tuple at `tid` on `page` deleted by `txn`, unless another
    /// live or committed transaction already has; then nothing changes.
    fn stamp(&self, page: &mut Page<&mut [u8]>, txn: &Txn, tid: Tid) -> Result<()> {
        let item = page.item_mut(tid.slot).ok_or(HeapError::TupleNotFound { tid })?;
        let hdr = TupleHeader::decode(item).ok_or(HeapError::TupleNotFound { tid })?;
        if hdr.xmax.is_valid() {
            match self.env.txns().status(hdr.xmax) {
                TxnStatus::Aborted => {} // stale stamp; safe to replace
                TxnStatus::InProgress | TxnStatus::Committed => {
                    return Err(HeapError::WriteConflict { tid });
                }
            }
        }
        TupleHeader::stamp_xmax(item, txn.xid());
        Ok(())
    }

    /// Scan all visible tuples.
    pub fn scan(&self, vis: Visibility) -> HeapScan<'_> {
        HeapScan { heap: self, vis, next_block: 0, nblocks: None, pending: Vec::new() }
    }

    /// Write back all of this heap's dirty pages (commit-time forcing).
    ///
    /// On the WORM manager the sync below *burns* staged blocks to the
    /// platter, and staging is volatile — so the page images and the burn
    /// intent are logged and flushed first. If the machine dies between
    /// the log flush and the burn, recovery replays the images into
    /// staging and the burn record re-syncs them; if it dies after, the
    /// replayed writes bounce off the burned blocks as idempotent no-ops.
    pub fn flush(&self) -> Result<()> {
        if self.smgr == self.env.worm_id() {
            self.env.pool().capture_pending().map_err(HeapError::Buffer)?;
            let wal = self.env.wal();
            let end = wal
                .append(&pglo_wal::WalRecord::WormBurn { smgr: self.smgr.0 as u32, rel: self.rel })
                .map_err(|e| HeapError::Catalog(format!("log worm burn: {e}")))?;
            wal.flush_to(end).map_err(|e| HeapError::Catalog(format!("flush worm burn: {e}")))?;
        }
        self.env.pool().flush_rel(self.smgr, self.rel)?;
        self.env.switch().get(self.smgr)?.sync(self.rel)?;
        Ok(())
    }

    /// Reclaim versions that are dead to everyone *and* whose deletion
    /// committed at or before `horizon` (destroying time travel before it).
    /// Also reclaims aborted inserts. Returns tuples reclaimed.
    ///
    /// `unindex` is handed each doomed `(tid, payload)` before its slot is
    /// freed, with no page latch held, and must delete the tuple's entry
    /// from every index on the class ([`no_index`] for a class with none):
    /// the next insert may take the slot, and an entry left behind would
    /// answer for the dead key with the new tuple. Entries go first so that
    /// a failure between the two steps leaves a dead tuple nothing points
    /// at, never an entry pointing at a free slot.
    ///
    /// The pass holds [`StorageEnv::vacuum_latch`]: only vacuum frees a
    /// slot, so with one pass at a time a remembered dead slot cannot be
    /// freed and refilled by an insert before this pass frees it.
    pub fn vacuum<E: From<HeapError>>(
        &self,
        horizon: u64,
        mut unindex: impl FnMut(Tid, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        let _one_pass = self.env.vacuum_latch().lock();
        let mut reclaimed = 0;
        let nblocks = self.nblocks()?;
        let tm = self.env.txns();
        for block in 0..nblocks {
            let pinned = self.env.pool().pin(self.key(block)).map_err(HeapError::from)?;
            // Dead tuples are immutable (only this pass touches them again),
            // so the page latch can drop between finding and freeing them.
            let dead: Vec<(u16, Vec<u8>)> = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                let doomed = page.items().filter(|(_, _, item)| {
                    let Some(hdr) = TupleHeader::decode(item) else { return false };
                    let aborted_insert = tm.status(hdr.xmin) == TxnStatus::Aborted;
                    let deleted_before_horizon = hdr.xmax.is_valid()
                        && matches!(tm.commit_ts(hdr.xmax), Some(ts) if ts <= horizon);
                    aborted_insert || deleted_before_horizon
                });
                doomed.map(|(slot, _, item)| (slot, tuple_payload(item).to_vec())).collect()
            });
            if dead.is_empty() {
                continue;
            }
            for (slot, payload) in &dead {
                unindex(Tid::new(block, *slot), payload)?;
            }
            pinned.with_write(|buf| {
                let mut page = Page::new(&mut buf[..]);
                for (slot, _) in &dead {
                    page.delete_item(*slot);
                }
                page.compact();
            });
            reclaimed += dead.len();
        }
        Ok(reclaimed)
    }
}

/// The header `txn` gives a new tuple of payload `head` + `body`, and the
/// tuple's length; a tuple larger than a page can hold is refused.
fn new_header(txn: &Txn, head: &[u8], body: &[u8]) -> Result<([u8; TUPLE_HEADER_SIZE], usize)> {
    let (len, max) = (TUPLE_HEADER_SIZE + head.len() + body.len(), Page::<&[u8]>::max_item_size(0));
    if len > max {
        return Err(HeapError::TupleTooLarge { size: len, max });
    }
    let mut hdr = [0; TUPLE_HEADER_SIZE];
    TupleHeader::new(txn.xid()).encode_into(&mut hdr);
    Ok((hdr, len))
}

/// Add the `len`-byte tuple `img` to `page`, compacting it first if only
/// its fragmented space would hold the tuple; `None` if it does not fit.
fn place(page: &mut Page<&mut [u8]>, img: &[&[u8]], len: usize) -> Option<u16> {
    match page.add_item(img) {
        Some(slot) => Some(slot),
        None if page.reclaimable() >= len => {
            page.compact();
            page.add_item(img)
        }
        None => None,
    }
}

/// The [`Heap::vacuum`] callback of a class that has no index.
// LINT: allow(R14, the vacuum callback of an unindexed class, which examples/archive_vacuum.rs passes)
pub fn no_index(_: Tid, _: &[u8]) -> Result<()> {
    Ok(())
}

/// Streaming scan over a heap's visible tuples.
pub struct HeapScan<'a> {
    heap: &'a Heap,
    vis: Visibility,
    next_block: u32,
    nblocks: Option<u32>,
    pending: Vec<(Tid, Vec<u8>)>,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(Tid, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop() {
                return Some(Ok(item));
            }
            let nblocks = match self.nblocks {
                Some(n) => n,
                None => match self.heap.nblocks() {
                    Ok(n) => {
                        self.nblocks = Some(n);
                        n
                    }
                    Err(e) => return Some(Err(e)),
                },
            };
            if self.next_block >= nblocks {
                return None;
            }
            let block = self.next_block;
            self.next_block += 1;
            // A heap scan is the canonical ascending walk: hint it so the
            // pool prefetches the blocks ahead.
            let pinned = match self
                .heap
                .env
                .pool()
                .pin_with_hint(self.heap.key(block), AccessHint::Sequential)
            {
                Ok(p) => p,
                Err(e) => return Some(Err(e.into())),
            };
            let tm = self.heap.env.txns();
            let sim = self.heap.env.sim();
            let vis = &self.vis;
            let mut batch: Vec<(Tid, Vec<u8>)> = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                page.items()
                    .filter_map(|(slot, flag, item)| {
                        sim.charge_cpu(SCAN_CPU_INSTR);
                        let hdr = TupleHeader::decode(item)?;
                        if flag == ItemFlag::Dead && !matches!(vis, Visibility::Raw) {
                            return None;
                        }
                        if tuple_visible(hdr.xmin, hdr.xmax, vis, tm) {
                            Some((Tid::new(block, slot), tuple_payload(item).to_vec()))
                        } else {
                            None
                        }
                    })
                    .collect()
            });
            batch.reverse(); // pop() yields in slot order
            self.pending = batch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvOptions;

    fn env() -> (tempfile::TempDir, Arc<StorageEnv>) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open_with(dir.path(), EnvOptions::default()).unwrap();
        (dir, env)
    }

    fn collect(heap: &Heap, vis: Visibility) -> Vec<Vec<u8>> {
        heap.scan(vis).map(|r| r.unwrap().1).collect()
    }

    #[test]
    fn insert_fetch_visible_after_commit() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t = env.begin();
        let tid = heap.insert(&t, b"row-1").unwrap();
        // Visible to self before commit.
        let vis = Visibility::for_txn(&t);
        assert_eq!(heap.fetch(tid, &vis).unwrap().unwrap(), b"row-1");
        t.commit();
        let t2 = env.begin();
        let vis2 = Visibility::for_txn(&t2);
        assert_eq!(heap.fetch(tid, &vis2).unwrap().unwrap(), b"row-1");
        t2.commit();
    }

    /// Four sessions insert near-page-size tuples into one heap at once.
    /// A fresh page is everyone's "last block" the moment it exists, so
    /// inserters race to fill it; every tuple must be there exactly once
    /// afterwards.
    #[test]
    fn concurrent_inserts_into_one_heap_all_land_once() {
        const THREADS: u32 = 4;
        const EACH: u32 = 3_000;
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let (env, heap, start) = (&env, &heap, &start);
                s.spawn(move || {
                    let mut payload = vec![thread as u8; 5_000];
                    let txn = env.begin();
                    start.wait();
                    for i in 0..EACH {
                        payload[..4].copy_from_slice(&(thread * EACH + i).to_le_bytes());
                        heap.insert(&txn, &payload).unwrap();
                    }
                    txn.commit();
                });
            }
        });
        let reader = env.begin();
        let mut seen: Vec<u32> = collect(&heap, Visibility::for_txn(&reader))
            .iter()
            .map(|p| u32::from_le_bytes(p[..4].try_into().unwrap()))
            .collect();
        reader.commit();
        seen.sort_unstable();
        assert!(seen == (0..THREADS * EACH).collect::<Vec<u32>>(), "every tuple exactly once");
    }

    #[test]
    fn aborted_insert_invisible() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t = env.begin();
        let tid = heap.insert(&t, b"ghost").unwrap();
        t.abort();
        let t2 = env.begin();
        assert!(heap.fetch(tid, &Visibility::for_txn(&t2)).unwrap().is_none());
        assert!(collect(&heap, Visibility::for_txn(&t2)).is_empty());
        t2.commit();
    }

    #[test]
    fn update_keeps_old_version_for_time_travel() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid1 = heap.insert(&t1, b"v1").unwrap();
        let ts1 = t1.commit();
        let t2 = env.begin();
        let tid2 = heap.update(&t2, tid1, b"v2").unwrap();
        let ts2 = t2.commit();
        // Current read sees only v2.
        let t3 = env.begin();
        let vis = Visibility::for_txn(&t3);
        assert!(heap.fetch(tid1, &vis).unwrap().is_none());
        assert_eq!(heap.fetch(tid2, &vis).unwrap().unwrap(), b"v2");
        t3.commit();
        // Time travel to ts1 sees v1; to ts2 sees v2.
        assert_eq!(heap.fetch(tid1, &Visibility::AsOf(ts1)).unwrap().unwrap(), b"v1");
        assert!(heap.fetch(tid2, &Visibility::AsOf(ts1)).unwrap().is_none());
        assert_eq!(heap.fetch(tid2, &Visibility::AsOf(ts2)).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn write_conflict_detected() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid = heap.insert(&t1, b"x").unwrap();
        t1.commit();
        let t2 = env.begin();
        heap.delete(&t2, tid).unwrap();
        let t3 = env.begin();
        assert!(matches!(heap.delete(&t3, tid), Err(HeapError::WriteConflict { .. })));
        t2.commit();
        // Still conflicts after t2 committed.
        assert!(matches!(heap.delete(&t3, tid), Err(HeapError::WriteConflict { .. })));
        t3.abort();
    }

    /// A new version that fits on its old version's page goes there. A
    /// conflicting update changes nothing on the page: neither the stamp
    /// nor the insert happens.
    #[test]
    fn update_goes_on_the_old_page_and_a_conflict_leaves_it_unchanged() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid = heap.insert(&t1, b"v1").unwrap();
        // Another page after it, the insert hint and the last block.
        assert_eq!(heap.insert(&t1, &vec![0; Heap::max_payload()]).unwrap().block, 1);
        t1.commit();
        let t2 = env.begin();
        let tid2 = heap.update(&t2, tid, b"v2").unwrap();
        assert_eq!(tid2.block, tid.block, "the new version is on the old version's page");
        let page = || env.pool().pin(heap.key(tid.block)).unwrap().with_read(|buf| buf.to_vec());
        let before = page();
        let t3 = env.begin();
        assert!(matches!(heap.update(&t3, tid, b"v3"), Err(HeapError::WriteConflict { .. })));
        assert!(page() == before, "a conflicting update changed the page");
        t3.abort();
        t2.commit();
        let t4 = env.begin();
        assert_eq!(collect(&heap, Visibility::for_txn(&t4)).len(), 2, "v2 and the full row");
        t4.commit();
    }

    #[test]
    fn delete_by_aborted_txn_can_be_retried() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid = heap.insert(&t1, b"x").unwrap();
        t1.commit();
        let t2 = env.begin();
        heap.delete(&t2, tid).unwrap();
        t2.abort();
        let t3 = env.begin();
        heap.delete(&t3, tid).unwrap();
        let ts3 = t3.commit();
        assert!(heap.fetch(tid, &Visibility::AsOf(ts3)).unwrap().is_none());
    }

    #[test]
    fn scan_returns_all_visible_rows_across_pages() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t = env.begin();
        let payload = vec![7u8; 3000]; // ~2.6 tuples per page
        for i in 0..20u8 {
            let mut p = payload.clone();
            p[0] = i;
            heap.insert(&t, &p).unwrap();
        }
        t.commit();
        let t2 = env.begin();
        let rows = collect(&heap, Visibility::for_txn(&t2));
        assert_eq!(rows.len(), 20);
        let mut firsts: Vec<u8> = rows.iter().map(|r| r[0]).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, (0..20).collect::<Vec<u8>>());
        assert!(heap.nblocks().unwrap() >= 8, "payloads span multiple pages");
        t2.commit();
    }

    /// Dirty means changed: an insert that finds its hint page full moves
    /// on to a fresh block without logging the full page or writing it
    /// home again.
    #[test]
    fn insert_past_a_full_hint_page_leaves_it_clean() {
        let (d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let full = vec![7u8; Heap::max_payload()];
        let t = env.begin();
        assert_eq!(heap.insert(&t, &full).unwrap().block, 0);
        t.commit();
        // Block 0, the hint, is full, logged and home: clean.
        env.pool().flush_all().unwrap();
        let (wal, from) = (env.wal(), env.wal().end_lsn());
        let written = env.pool().stats().writebacks;
        let t = env.begin();
        assert_eq!(heap.insert(&t, &full).unwrap().block, 1);
        t.commit();
        env.pool().flush_all().unwrap();
        wal.flush_to(wal.end_lsn()).unwrap();
        let seg = wal.options().segment_bytes;
        let records = pglo_wal::Wal::scan_records(env.vfs(), d.path().join("wal"), seg);
        let records = records.unwrap().into_iter().filter(|r| r.lsn >= from);
        let pages = records.filter(|r| r.kind == pglo_wal::KIND_PAGE_DELTA).count();
        assert_eq!(pages, 1, "page records logged: only the fresh block's");
        let written = env.pool().stats().writebacks - written;
        assert_eq!(written, 1, "pages written home: only the fresh block");
    }

    #[test]
    fn tuple_too_large_rejected() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t = env.begin();
        let too_big = vec![0u8; Heap::max_payload() + 1];
        assert!(matches!(heap.insert(&t, &too_big), Err(HeapError::TupleTooLarge { .. })));
        // Exactly max fits.
        let just_right = vec![0u8; Heap::max_payload()];
        heap.insert(&t, &just_right).unwrap();
        t.commit();
    }

    #[test]
    fn vacuum_reclaims_old_versions() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid = heap.insert(&t1, &vec![1u8; 4000]).unwrap();
        t1.commit();
        let t2 = env.begin();
        let tid2 = heap.update(&t2, tid, &vec![2u8; 4000]).unwrap();
        let ts2 = t2.commit();
        // Before vacuum both versions exist physically.
        let raw: Vec<_> = heap.scan(Visibility::Raw).map(|r| r.unwrap()).collect();
        assert_eq!(raw.len(), 2);
        let reclaimed = heap.vacuum(ts2, no_index).unwrap();
        assert_eq!(reclaimed, 1);
        let raw: Vec<_> = heap.scan(Visibility::Raw).map(|r| r.unwrap()).collect();
        assert_eq!(raw.len(), 1);
        // The live version is still fetchable.
        let t3 = env.begin();
        assert_eq!(heap.fetch(tid2, &Visibility::for_txn(&t3)).unwrap().unwrap(), vec![2u8; 4000]);
        t3.commit();
    }

    #[test]
    fn vacuum_respects_horizon() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t1 = env.begin();
        let tid = heap.insert(&t1, b"v1").unwrap();
        let ts1 = t1.commit();
        let t2 = env.begin();
        heap.update(&t2, tid, b"v2").unwrap();
        let ts2 = t2.commit();
        // Horizon before the delete: nothing reclaimed, time travel intact.
        assert_eq!(heap.vacuum(ts2 - 1, no_index).unwrap(), 0);
        assert_eq!(heap.fetch(tid, &Visibility::AsOf(ts1)).unwrap().unwrap(), b"v1");
        // Horizon at the delete: v1 goes away.
        assert_eq!(heap.vacuum(ts2, no_index).unwrap(), 1);
        assert!(heap.fetch(tid, &Visibility::AsOf(ts1)).unwrap().is_none());
    }

    #[test]
    fn anonymous_heap_and_its_drop() {
        let (_d, env) = env();
        let heap = Heap::create_anonymous(&env, env.disk_id()).unwrap();
        let t = env.begin();
        heap.insert(&t, b"data").unwrap();
        t.commit();
        assert!(heap.nblocks().unwrap() > 0);
        let t = env.begin();
        env.drop_rels(&t, heap.smgr(), &[heap.rel()]);
        t.abort();
        assert!(heap.nblocks().unwrap() > 0, "an aborted drop keeps the file");
        let t = env.begin();
        env.drop_rels(&t, heap.smgr(), &[heap.rel()]);
        t.commit();
        assert!(heap.nblocks().is_err());
    }

    #[test]
    fn insert_reuses_space_after_vacuum() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        // Fill one page exactly.
        let t = env.begin();
        let big = vec![0u8; Heap::max_payload()];
        let tid = heap.insert(&t, &big).unwrap();
        t.commit();
        assert_eq!(heap.nblocks().unwrap(), 1);
        let t2 = env.begin();
        heap.delete(&t2, tid).unwrap();
        let ts = t2.commit();
        heap.vacuum(ts, no_index).unwrap();
        // New insert fits in the reclaimed page instead of extending.
        let t3 = env.begin();
        let tid3 = heap.insert(&t3, &big).unwrap();
        t3.commit();
        assert_eq!(heap.nblocks().unwrap(), 1, "page space must be reused");
        assert_eq!(tid3.block, 0);
    }

    /// Two passes over one heap must not both remember a dead slot: the
    /// first frees it, an insert takes it, and the second would unindex
    /// and free the live tuple. The second pass is started while the first
    /// is between unindexing and freeing, and has to wait there.
    #[test]
    fn concurrent_vacuums_spare_a_reused_slot() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let t = env.begin();
        let dead = heap.insert(&t, b"old").unwrap();
        t.commit();
        let t = env.begin();
        heap.delete(&t, dead).unwrap();
        let ts = t.commit();

        let (go_tx, go) = channel::<()>();
        let (second_saw_tx, second_saw) = channel();
        let (release_tx, release) = channel::<()>();
        let heap = &heap;
        std::thread::scope(|s| {
            let second = s.spawn(move || {
                go.recv().unwrap();
                heap.vacuum(ts, |tid, _| -> Result<()> {
                    second_saw_tx.send(tid).unwrap();
                    let _ = release.recv();
                    Ok(())
                })
            });
            let first = heap.vacuum(ts, |tid, _| -> Result<()> {
                assert_eq!(tid, dead);
                go_tx.send(()).unwrap();
                assert!(
                    second_saw.recv_timeout(Duration::from_millis(200)).is_err(),
                    "a second pass remembered the slot the first is about to free"
                );
                Ok(())
            });
            assert_eq!(first.unwrap(), 1);
            let t = env.begin();
            let live = heap.insert(&t, b"new").unwrap();
            t.commit();
            assert_eq!(live, dead, "the insert reuses the freed slot");
            drop(release_tx);
            assert_eq!(second.join().unwrap().unwrap(), 0);
            let t = env.begin();
            assert_eq!(heap.fetch(live, &Visibility::for_txn(&t)).unwrap().unwrap(), b"new");
            t.commit();
        });
    }

    #[test]
    fn open_by_name_roundtrip() {
        let (_d, env) = env();
        {
            let heap = Heap::create(&env, "EMP", env.disk_id(), Default::default()).unwrap();
            let t = env.begin();
            heap.insert(&t, b"joe").unwrap();
            t.commit();
        }
        let heap = Heap::open(&env, "EMP").unwrap();
        let t = env.begin();
        let rows = collect(&heap, Visibility::for_txn(&t));
        assert_eq!(rows, vec![b"joe".to_vec()]);
        t.commit();
        assert!(Heap::open(&env, "NOPE").is_err());
    }

    #[test]
    fn snapshot_isolation_between_concurrent_txns() {
        let (_d, env) = env();
        let heap = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let reader = env.begin();
        let writer = env.begin();
        let tid = heap.insert(&writer, b"new").unwrap();
        writer.commit();
        // Reader's snapshot predates the writer's commit.
        assert!(heap.fetch(tid, &Visibility::for_txn(&reader)).unwrap().is_none());
        reader.commit();
    }
}
