//! B-tree access method.
//!
//! Secondary indexes in this reproduction serve three paper roles:
//!
//! * the f-chunk implementation "maintains a secondary btree index on the
//!   data blocks, and so must traverse the index any time a seek is done"
//!   (§9.2) — this traversal is the random-access cost Figure 2 attributes
//!   to f-chunk;
//! * the v-segment implementation's *segment index* (§6.4);
//! * Inversion's directory lookup (§8).
//!
//! Following POSTGRES, index entries point at heap TIDs and carry **no**
//! visibility information: every version of a tuple has an index entry, and
//! the heap decides visibility at fetch time. That is exactly what makes
//! the v-segment index time-travelable "for free".
//!
//! Structure: a B+-tree over buffer-pool pages. Entries are ordered by
//! `(key bytes, TID)`, duplicates allowed. Internal separators store the
//! full `(key, TID)` of the first entry of their subtree, so descent is a
//! uniform binary search. Leaves are doubly linked for ordered scans in
//! both directions. Deletion removes entries without rebalancing (empty
//! pages persist; scans skip them) — the same lazy discipline POSTGRES used.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod node;
pub mod scan;

pub use scan::{BTreeScan, ScanStart};

use node::{NodeEntry, NodeView, META_SPECIAL, NODE_SPECIAL};
use parking_lot::Mutex;
use pglo_buffer::{AccessHint, PageKey};
use pglo_heap::{Heap, HeapError, StorageEnv};
use pglo_pages::{Page, Tid, PAGE_SIZE};
use pglo_smgr::{RelFileId, SmgrId};
use pglo_txn::Visibility;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

/// Crate-wide result type (storage errors surface as heap errors).
pub type Result<T> = std::result::Result<T, HeapError>;

/// Longest permitted key, chosen so several entries always fit per page.
pub const MAX_KEY_LEN: usize = 1024;

/// Simulated CPU cost of one level of descent (binary search + page
/// bookkeeping) — the "extra cost of the btree traversal" of §9.2.
const DESCENT_CPU_INSTR: u64 = 1200;

/// Entries a reverse walk copies out per descent
/// ([`BTree::visible_rev`]): a last key's few newest versions, without
/// copying the rest of its leaf.
const REV_BATCH: usize = 16;

/// A B-tree index over `(key, TID)` entries.
pub struct BTree {
    env: Arc<StorageEnv>,
    rel: RelFileId,
    smgr: SmgrId,
    /// Coarse-grained tree latch: one writer or reader structure-walk at a
    /// time. Shared per relation via [`StorageEnv::rel_latch`], so every
    /// `BTree` opened on the same index — one per large-object handle —
    /// contends on one lock; scans re-take it per leaf load, which keeps
    /// them consistent under concurrent right-sibling splits. Page-level
    /// latching is future work.
    lock: Arc<Mutex<()>>,
}

impl BTree {
    /// Create a new, empty index on an anonymous relation, in a
    /// transaction of its own, committed: no row names it. An index a row
    /// names is made in the row's transaction ([`Self::create_empty`]).
    pub fn create_anonymous(env: &Arc<StorageEnv>, smgr: SmgrId) -> Result<BTree> {
        let (txn, oid) = (env.begin(), env.catalog().alloc_oid()?);
        env.create_rels(&txn, smgr, &[oid])?;
        let tree = Self::create_empty(env, oid, smgr)?;
        txn.try_commit().map_err(|e| HeapError::Smgr(e.into()))?;
        Ok(tree)
    }

    /// Make an empty index in relation `oid`, which the calling
    /// transaction has just made ([`StorageEnv::create_rels`]).
    pub fn create_empty(env: &Arc<StorageEnv>, oid: u64, smgr: SmgrId) -> Result<BTree> {
        let tree = Self::open_oid(env, oid, smgr);
        tree.bootstrap()?;
        Ok(tree)
    }

    /// Open the index at a reserved `oid`, which no transaction makes,
    /// under its latch first creating it empty unless it holds its meta
    /// page and root. One with fewer blocks (a crash before both reached
    /// the log or home) can index nothing yet, and is dropped and made
    /// afresh.
    pub fn open_or_create(env: &Arc<StorageEnv>, oid: u64, smgr: SmgrId) -> Result<BTree> {
        let tree = Self::open_oid(env, oid, smgr);
        let (mgr, latch) = (env.switch().get(smgr)?, Arc::clone(&tree.lock));
        let _guard = latch.lock();
        if mgr.exists(oid) {
            if mgr.nblocks(oid)? >= 2 {
                return Ok(tree);
            }
            env.pool().discard_rel(smgr, oid);
            mgr.unlink(oid)?;
        }
        mgr.create(oid)?;
        tree.bootstrap()?;
        Ok(tree)
    }

    /// Open an existing index by relation OID.
    pub fn open_oid(env: &Arc<StorageEnv>, oid: u64, smgr: SmgrId) -> BTree {
        let lock = env.rel_latch(smgr, oid);
        BTree { env: Arc::clone(env), rel: oid, smgr, lock }
    }

    fn bootstrap(&self) -> Result<()> {
        // Block 0: meta page. Block 1: empty root leaf.
        let (meta_block, meta) = self.env.pool().new_page(self.smgr, self.rel, |buf| {
            let mut page = Page::new(&mut buf[..]);
            page.init::<META_SPECIAL>();
        })?;
        debug_assert_eq!(meta_block, 0);
        let (root_block, _root) = self.env.pool().new_page(self.smgr, self.rel, |buf| {
            let mut page = Page::new(&mut buf[..]);
            page.init::<NODE_SPECIAL>();
            NodeView::init_special(&mut page, 0, 0, 0);
        })?;
        debug_assert_eq!(root_block, 1);
        meta.with_write(|buf| {
            let mut page = Page::new(&mut buf[..]);
            node::meta_set(&mut page, root_block, 1);
        });
        Ok(())
    }

    /// Relation OID of the index.
    pub fn rel(&self) -> RelFileId {
        self.rel
    }

    /// Storage manager the index lives on.
    pub fn smgr(&self) -> SmgrId {
        self.smgr
    }

    pub(crate) fn latch(&self) -> &Mutex<()> {
        &self.lock
    }

    pub(crate) fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    pub(crate) fn key(&self, block: u32) -> PageKey {
        PageKey::new(self.smgr, self.rel, block)
    }

    /// `(root block, tree height)` from the meta page.
    pub(crate) fn read_meta(&self) -> Result<(u32, u32)> {
        let pinned = self.env.pool().pin(self.key(0))?;
        Ok(pinned.with_read(|buf| node::meta_get(&Page::new(&buf[..]))))
    }

    fn write_meta(&self, root: u32, height: u32) -> Result<()> {
        let pinned = self.env.pool().pin(self.key(0))?;
        pinned.with_write(|buf| node::meta_set(&mut Page::new(&mut buf[..]), root, height));
        Ok(())
    }

    /// Number of blocks (meta + nodes) — the Figure 1 "B-tree index" rows.
    pub fn nblocks(&self) -> Result<u32> {
        Ok(self.env.switch().get(self.smgr)?.nblocks(self.rel)?)
    }

    /// Physical index size in bytes.
    pub fn size_bytes(&self) -> Result<u64> {
        Ok(self.nblocks()? as u64 * PAGE_SIZE as u64)
    }

    /// Descend to the leaf that should contain `(key, tid)`, returning the
    /// path of `(block, child index)` decisions with the leaf block last,
    /// and the leaf block.
    pub(crate) fn descend_path(&self, key: &[u8], tid: Tid) -> Result<(Vec<(u32, usize)>, u32)> {
        let (root, height) = self.read_meta()?;
        let mut path = Vec::with_capacity(height as usize);
        let mut block = root;
        loop {
            self.env.sim().charge_cpu(DESCENT_CPU_INSTR);
            let pinned = self.env.pool().pin(self.key(block))?;
            let child = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                let view = NodeView::new(&page);
                (!view.is_leaf()).then(|| {
                    let idx = view.child_index_for(key, tid);
                    (idx, view.entry_ref(idx).1)
                })
            });
            let Some((idx, child_block)) = child else {
                path.push((block, 0));
                return Ok((path, block));
            };
            path.push((block, idx));
            block = child_block;
        }
    }

    /// Insert an entry. Duplicate `(key, tid)` pairs are stored as given
    /// (the heap never reuses a TID for a different logical tuple until
    /// vacuum, which removes index entries first).
    pub fn insert(&self, key: &[u8], tid: Tid) -> Result<()> {
        assert!(key.len() <= MAX_KEY_LEN, "index key exceeds MAX_KEY_LEN");
        let _guard = self.lock.lock();
        let (path, leaf_block) = self.descend_path(key, tid)?;
        let entry = NodeEntry { key: key.to_vec(), tid, child: 0 };
        self.insert_into_node(&path, path.len() - 1, leaf_block, entry)
    }

    /// Insert `entry` into `block` (a node at `path[level_idx]`), splitting
    /// upward as needed.
    fn insert_into_node(
        &self,
        path: &[(u32, usize)],
        level_idx: usize,
        block: u32,
        entry: NodeEntry,
    ) -> Result<()> {
        let pinned = self.env.pool().pin(self.key(block))?;
        let fit = pinned.with_write(|buf| {
            let (idx, is_leaf) = {
                let page = Page::new(&buf[..]);
                let view = NodeView::new(&page);
                (view.insertion_index(&entry.key, entry.tid), view.level() == 0)
            };
            let encoded = entry.encode(is_leaf);
            let mut page = Page::new(&mut buf[..]);
            if page.insert_item_at(idx as u16, &encoded) {
                return true;
            }
            if page.reclaimable() >= encoded.len() {
                page.compact();
                if page.insert_item_at(idx as u16, &encoded) {
                    return true;
                }
            }
            false
        });
        if fit {
            return Ok(());
        }
        // Split: move the upper half of entries to a fresh right sibling.
        let (level, old_right, mut entries) = pinned.with_read(|buf| {
            let page = Page::new(&buf[..]);
            let view = NodeView::new(&page);
            (view.level(), view.right(), view.all_entries())
        });
        let is_leaf = level == 0;
        // Insert the new entry into the in-memory list, then split where the
        // bytes halve: keys vary in length, and half the entries by count can
        // be more than a page. (Equal-length keys split as by count.)
        let pos =
            entries.binary_search_by(|e| e.cmp_key(&entry.key, entry.tid)).unwrap_or_else(|p| p);
        entries.insert(pos, entry);
        let size = |e: &NodeEntry| e.key.len() + 16;
        let total: usize = entries.iter().map(size).sum();
        let mut left = 0;
        let left_half = entries.iter().take_while(|e| {
            left += size(e);
            left * 2 <= total
        });
        let mid = left_half.count();
        let right_entries = entries.split_off(mid);
        let left_entries = entries;
        let sep = right_entries[0].clone();
        let (new_block, new_pinned) = self.env.pool().new_page(self.smgr, self.rel, |buf| {
            let mut page = Page::new(&mut buf[..]);
            page.init::<NODE_SPECIAL>();
            NodeView::init_special(&mut page, level, block, old_right);
        })?;
        new_pinned.with_write(|buf| {
            let mut page = Page::new(&mut buf[..]);
            for (i, e) in right_entries.iter().enumerate() {
                assert!(page.insert_item_at(i as u16, &e.encode(is_leaf)), "split half must fit");
            }
        });
        pinned.with_write(|buf| {
            let mut page = Page::new(&mut buf[..]);
            // Rewrite the left node with its half.
            let count = page.item_count();
            for _ in 0..count {
                page.remove_item_at(0);
            }
            page.compact();
            for (i, e) in left_entries.iter().enumerate() {
                assert!(page.insert_item_at(i as u16, &e.encode(is_leaf)), "split half must fit");
            }
            NodeView::set_right(&mut page, new_block);
        });
        if old_right != 0 {
            let right_pinned = self.env.pool().pin(self.key(old_right))?;
            right_pinned.with_write(|buf| {
                let mut page = Page::new(&mut buf[..]);
                NodeView::set_left(&mut page, new_block);
            });
        }
        drop(pinned);
        // Propagate the separator.
        let sep_entry = NodeEntry { key: sep.key, tid: sep.tid, child: new_block };
        if level_idx == 0 {
            // Splitting the root: make a new root above it.
            let (_, height) = self.read_meta()?;
            let first = self.env.pool().pin(self.key(block))?.with_read(|buf| {
                let page = Page::new(&buf[..]);
                let ((key, tid), _) = NodeView::new(&page).entry_ref(0);
                NodeEntry { key: key.to_vec(), tid, child: block }
            });
            let (root_block, root_pinned) =
                self.env.pool().new_page(self.smgr, self.rel, |buf| {
                    let mut page = Page::new(&mut buf[..]);
                    page.init::<NODE_SPECIAL>();
                    NodeView::init_special(&mut page, level + 1, 0, 0);
                })?;
            root_pinned.with_write(|buf| {
                let mut page = Page::new(&mut buf[..]);
                assert!(page.insert_item_at(0, &first.encode(false)));
                assert!(page.insert_item_at(1, &sep_entry.encode(false)));
            });
            self.write_meta(root_block, height + 1)?;
            Ok(())
        } else {
            let (parent_block, _) = path[level_idx - 1];
            self.insert_into_node(path, level_idx - 1, parent_block, sep_entry)
        }
    }

    /// Remove an exact `(key, tid)` entry. Returns whether it was present.
    pub fn delete(&self, key: &[u8], tid: Tid) -> Result<bool> {
        enum Outcome {
            Deleted,
            Absent,
            TryRight(u32),
        }
        let _guard = self.lock.lock();
        let (_, mut block) = self.descend_path(key, tid)?;
        loop {
            if block == 0 {
                return Ok(false);
            }
            let pinned = self.env.pool().pin(self.key(block))?;
            let outcome = pinned.with_write(|buf| {
                let (found, right) = {
                    let page = Page::new(&buf[..]);
                    let view = NodeView::new(&page);
                    let idx = view.insertion_index(key, tid);
                    if idx < view.count() {
                        // A first entry beyond the target means nothing
                        // further right can match either.
                        ((view.entry_ref(idx).0 == (key, tid)).then_some(idx), 0)
                    } else {
                        // Target sorts past everything here; the right
                        // sibling could still hold it (empty leaf case).
                        (None, view.right())
                    }
                };
                match found {
                    Some(idx) => {
                        Page::new(&mut buf[..]).remove_item_at(idx as u16);
                        Outcome::Deleted
                    }
                    None if right != 0 => Outcome::TryRight(right),
                    None => Outcome::Absent,
                }
            });
            match outcome {
                Outcome::Deleted => return Ok(true),
                Outcome::Absent => return Ok(false),
                Outcome::TryRight(next) => block = next,
            }
        }
    }

    /// All TIDs stored under exactly `key`, in TID order: a point lookup,
    /// `walk_leaves` over one key, copying out nothing but the
    /// result.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<Tid>> {
        let mut out = Vec::new();
        self.walk_leaves(key, key, |view, run| {
            out.extend(run.map(|idx| view.entry_ref(idx).0 .1));
        })?;
        Ok(out)
    }

    /// `f(leaf, run)` for each leaf holding entries with `lo <= key <=
    /// hi`, `run` their indices, in key order. The relation latch is held
    /// from the descent to the end of the range, each leaf is pinned once
    /// and searched in place, and the walk follows `right()` while the
    /// range may go on: duplicates span leaves, and lazily emptied leaves
    /// sit between them.
    fn walk_leaves(
        &self,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&NodeView<'_, &[u8]>, Range<usize>),
    ) -> Result<()> {
        let (first, last) = (Tid::new(0, 0), Tid::new(u32::MAX, u16::MAX));
        let _guard = self.lock.lock();
        let (_, mut block) = self.descend_path(lo, first)?;
        while block != 0 {
            let pinned = self.env.pool().pin(self.key(block))?;
            block = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                let view = NodeView::new(&page);
                let from = view.insertion_index(lo, first);
                let to = view.insertion_index(hi, last).max(from);
                f(&view, from..to);
                if to < view.count() {
                    0
                } else {
                    view.right()
                }
            });
        }
        Ok(())
    }

    /// The versions stored under `key` that `vis` can see, as `(tid,
    /// payload)`, each fetched from `heap` only when the caller asks for
    /// it, newest first: `newest_first` decides the order every version
    /// walk, this one and [`Self::visible_range`], tries a key's TIDs in.
    pub fn visible<'a>(
        &self,
        heap: &'a Heap,
        key: &[u8],
        vis: &'a Visibility,
        hint: AccessHint,
    ) -> Result<impl Iterator<Item = Result<(Tid, Vec<u8>)>> + 'a> {
        Ok(newest_first(self.lookup(key)?.into_iter()).filter_map(move |tid| {
            heap.fetch_hinted(tid, vis, hint).map(|p| p.map(|p| (tid, p))).transpose()
        }))
    }

    /// For each key in `lo..=hi`, in key order, the first version `vis`
    /// can see, its TIDs tried newest first: `f(key, tid, payload)`
    /// with the payload borrowed from the pinned heap page. A key with no
    /// visible version is skipped. Where a key names one row (f-chunk's
    /// sequence numbers) that is the row's version the snapshot sees; a
    /// key shared by several rows yields only the newest one visible, and
    /// [`Self::visible`] yields them all.
    ///
    /// One descent and one leaf walk collect every `(key, tid)` in the
    /// range under the relation latch, as [`Self::lookup`] does for one
    /// key; the latch is released before the first heap fetch. The first
    /// key is fetched with `hint`, every later one with
    /// [`AccessHint::Sequential`]: the walk ascends.
    ///
    /// `f` runs under the heap page's read latch (see [`Heap::fetch_with`]).
    pub fn visible_range<E, F>(
        &self,
        heap: &Heap,
        lo: &[u8],
        hi: &[u8],
        vis: &Visibility,
        mut hint: AccessHint,
        mut f: F,
    ) -> std::result::Result<(), E>
    where
        E: From<HeapError>,
        F: FnMut(&[u8], Tid, &[u8]) -> std::result::Result<(), E>,
    {
        let range = self.collect_range(lo, hi)?;
        let mut key_start = 0;
        for run in range.entries.chunk_by(|a, b| a.1 == b.1) {
            let key = &range.keys[key_start..run[0].1];
            key_start = run[0].1;
            for tid in newest_first(run.iter().map(|&(tid, _)| tid)) {
                if let Some(done) = heap.fetch_with(tid, vis, hint, |_, p| f(key, tid, p))? {
                    done?;
                    break;
                }
            }
            hint = AccessHint::Sequential;
        }
        Ok(())
    }

    /// Every `(key, tid)` with `lo <= key <= hi`, in order, copied out by
    /// one [`Self::walk_leaves`].
    fn collect_range(&self, lo: &[u8], hi: &[u8]) -> Result<RangeEntries> {
        let mut range = RangeEntries::default();
        self.walk_leaves(lo, hi, |view, run| range.push_run(view, run))?;
        Ok(range)
    }

    /// Every version `vis` can see, walking down from the last key `<=
    /// hi`: keys in descending order, each key's TIDs tried newest first
    /// (`newest_first`), each visible version handed to `f(key, tid,
    /// payload)`, the payload borrowed from the pinned heap page, until
    /// `f` breaks. The last visible version of a range costs one descent,
    /// a copy of at most 16 entries (`REV_BATCH`) and, when the range's
    /// newest entry is visible, one heap fetch.
    ///
    /// Entries are copied out a batch at a time, under the relation latch,
    /// which is released before any heap fetch; the next batch is the one
    /// below the last batch's first entry, found by a fresh descent. `f`
    /// runs under the heap page's read latch (see [`Heap::fetch_with`]).
    pub fn visible_rev<E, F>(
        &self,
        heap: &Heap,
        hi: &[u8],
        vis: &Visibility,
        mut f: F,
    ) -> std::result::Result<(), E>
    where
        E: From<HeapError>,
        F: FnMut(&[u8], Tid, &[u8]) -> std::result::Result<ControlFlow<()>, E>,
    {
        let mut below = (hi.to_vec(), Tid::new(u32::MAX, u16::MAX));
        loop {
            let batch = self.batch_below(&below.0, below.1)?;
            let Some(&(first_tid, first_end)) = batch.entries.first() else { return Ok(()) };
            let mut runs = batch.entries.chunk_by(|a, b| a.1 == b.1).rev().peekable();
            while let Some(run) = runs.next() {
                let key = &batch.keys[runs.peek().map_or(0, |r| r[0].1)..run[0].1];
                for tid in newest_first(run.iter().map(|&(tid, _)| tid)) {
                    let seen = heap.fetch_with(tid, vis, AccessHint::Random, |_, p| f(key, tid, p));
                    if seen?.transpose()?.is_some_and(|flow| flow.is_break()) {
                        return Ok(());
                    }
                }
            }
            below = (batch.keys[..first_end].to_vec(), first_tid);
        }
    }

    /// The last `REV_BATCH` entries below `(key, tid)`, in order: one
    /// descent under the relation latch, then left links past leaves with
    /// none below it (the bound is their first entry, or vacuum emptied
    /// them). Empty at the start of the tree.
    fn batch_below(&self, key: &[u8], tid: Tid) -> Result<RangeEntries> {
        let _guard = self.lock.lock();
        let (_, mut block) = self.descend_path(key, tid)?;
        let mut batch = RangeEntries::default();
        while block != 0 && batch.entries.is_empty() {
            let pinned = self.env.pool().pin(self.key(block))?;
            block = pinned.with_read(|buf| {
                let page = Page::new(&buf[..]);
                let view = NodeView::new(&page);
                let upto = view.insertion_index(key, tid);
                batch.push_run(&view, upto.saturating_sub(REV_BATCH)..upto);
                view.left()
            });
        }
        Ok(batch)
    }

    /// An ordered scan beginning at `start`.
    pub fn scan(&self, start: ScanStart) -> Result<BTreeScan<'_>> {
        BTreeScan::position(self, start)
    }
}

/// The order a key's versions are tried in, decided here for every walk:
/// **descending TID**. The heap appends, so that is newest first — a
/// current snapshot finds the live version on its first fetch, an as-of
/// snapshot pays one fetch per version newer than it — except where an
/// insert reused space vacuum freed. A snapshot sees at most one version
/// of a row, so the order decides only what a walk costs, never what it
/// finds.
fn newest_first<I: DoubleEndedIterator<Item = Tid>>(tids: I) -> std::iter::Rev<I> {
    tids.rev()
}

/// The entries of a range, keys stored once per distinct key: entry `i`
/// is `(tid, end of its key in keys)`, and its key starts where the
/// previous distinct key ends.
#[derive(Default)]
struct RangeEntries {
    keys: Vec<u8>,
    entries: Vec<(Tid, usize)>,
    /// Where the last distinct key starts in `keys`.
    last_key: usize,
}

impl RangeEntries {
    /// Append `view`'s entries `run`, in order. Space is reserved once
    /// per leaf, so the allocations do not grow with the number of
    /// entries.
    fn push_run(&mut self, view: &NodeView<'_, &[u8]>, run: Range<usize>) {
        self.keys.reserve(run.clone().map(|idx| view.entry_ref(idx).0 .0.len()).sum());
        self.entries.reserve(run.len());
        for idx in run {
            let ((key, tid), _) = view.entry_ref(idx);
            if self.entries.is_empty() || self.keys[self.last_key..] != *key {
                self.last_key = self.keys.len();
                self.keys.extend_from_slice(key);
            }
            self.entries.push((tid, self.keys.len()));
        }
    }
}

/// Big-endian key encoders: byte order equals numeric order, so these keys
/// scan in numeric order.
pub mod keys {
    /// Encode a `u64` so lexicographic order equals numeric order.
    pub fn u64_key(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    /// Composite `(u64, u64)` key, ordered component-wise.
    // LINT: allow(R14, the two-column key encoder; the B-tree tests build composite keys with it)
    pub fn u64_pair_key(a: u64, b: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_be_bytes());
        out[8..].copy_from_slice(&b.to_be_bytes());
        out
    }

    /// Composite `(u64, bytes)` key (directory lookups: parent id + name).
    pub fn u64_bytes_key(a: u64, b: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + b.len());
        out.extend_from_slice(&a.to_be_bytes());
        out.extend_from_slice(b);
        out
    }

    /// Decode the `u64` prefix of a key; `None` if it is shorter than 8 bytes.
    pub fn u64_prefix(key: &[u8]) -> Option<u64> {
        key.first_chunk().copied().map(u64::from_be_bytes)
    }
}

#[cfg(test)]
mod tests;
