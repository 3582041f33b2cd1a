//! B-tree node layout: entry encoding and the per-node special area.
//!
//! Node special area (16 bytes at the page tail):
//! `[level u16][flags u16][left sibling u32][right sibling u32][reserved u32]`.
//! Level 0 is a leaf. Sibling block 0 means "none" (block 0 is the meta
//! page, never a node).
//!
//! Entry encoding: `[klen u16][key bytes][tid 6]` for leaves, plus
//! `[child u32]` for internal nodes. Entries are kept in `(key, tid)`
//! order by the page's ordered line-pointer array.

use pglo_pages::{Page, Tid};
use std::cmp::Ordering;

/// Special-area size of the meta page (block 0): `[root u32][height u32]`
/// plus reserved space.
pub const META_SPECIAL: usize = 16;
/// Special-area size of node pages.
pub const NODE_SPECIAL: usize = 16;

/// The first 16 bytes of a btree page's special space, which every page
/// the tree initialises carries (meta and node pages alike).
#[expect(
    clippy::expect_used,
    reason = "btree pages are initialised with META_SPECIAL or NODE_SPECIAL bytes of special space"
)]
fn special<B: AsRef<[u8]>>(page: &Page<B>) -> &[u8; 16] {
    const { assert!(META_SPECIAL >= 16 && NODE_SPECIAL >= 16) };
    page.special().first_chunk().expect("btree page special space")
}

/// Read `(root block, height)` from the meta page.
pub fn meta_get<B: AsRef<[u8]>>(page: &Page<B>) -> (u32, u32) {
    let &[r0, r1, r2, r3, h0, h1, h2, h3, ..] = special(page);
    (u32::from_le_bytes([r0, r1, r2, r3]), u32::from_le_bytes([h0, h1, h2, h3]))
}

/// Write `(root block, height)` to the meta page.
pub fn meta_set<B: AsRef<[u8]> + AsMut<[u8]>>(page: &mut Page<B>, root: u32, height: u32) {
    let sp = page.special_mut();
    sp[0..4].copy_from_slice(&root.to_le_bytes());
    sp[4..8].copy_from_slice(&height.to_le_bytes());
}

/// Borrow `((key, tid), child)` out of a stored entry: the pair entries
/// sort by, and the child block (0 in leaves). `None` if it is cut short.
fn split_entry(data: &[u8], is_leaf: bool) -> Option<((&[u8], Tid), u32)> {
    let (klen, rest) = data.split_first_chunk::<2>()?;
    let (key, rest) = rest.split_at_checked(u16::from_le_bytes(*klen) as usize)?;
    let tid = Tid::from_bytes(rest)?;
    let child = match rest.get(6..).and_then(<[u8]>::first_chunk) {
        _ if is_leaf => 0,
        Some(&child) => u32::from_le_bytes(child),
        None => return None,
    };
    Some(((key, tid), child))
}

/// A decoded node entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    /// The key.
    pub key: Vec<u8>,
    /// The tid.
    pub tid: Tid,
    /// Child block (internal nodes only; 0 in leaves).
    pub child: u32,
}

impl NodeEntry {
    /// Encode for storage.
    pub fn encode(&self, is_leaf: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.key.len() + 6 + 4);
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.tid.to_bytes());
        if !is_leaf {
            out.extend_from_slice(&self.child.to_le_bytes());
        }
        out
    }

    /// Compare this entry's `(key, tid)` against a probe.
    pub fn cmp_key(&self, key: &[u8], tid: Tid) -> Ordering {
        self.key.as_slice().cmp(key).then_with(|| self.tid.cmp(&tid))
    }
}

/// Read-only view over a node page.
pub struct NodeView<'a, B> {
    page: &'a Page<B>,
}

impl<'a, B: AsRef<[u8]>> NodeView<'a, B> {
    /// A view over `page`.
    pub fn new(page: &'a Page<B>) -> Self {
        Self { page }
    }

    /// Node level: 0 is a leaf.
    pub fn level(&self) -> u16 {
        let &[l0, l1, ..] = special(self.page);
        u16::from_le_bytes([l0, l1])
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// Left sibling block (0 = none).
    pub fn left(&self) -> u32 {
        let &[_, _, _, _, l0, l1, l2, l3, ..] = special(self.page);
        u32::from_le_bytes([l0, l1, l2, l3])
    }

    /// Right sibling block (0 = none).
    pub fn right(&self) -> u32 {
        let &[_, _, _, _, _, _, _, _, r0, r1, r2, r3, ..] = special(self.page);
        u32::from_le_bytes([r0, r1, r2, r3])
    }

    /// Number of entries in the node.
    pub fn count(&self) -> usize {
        self.page.item_count()
    }

    /// Entry `idx` as `((key, tid), child)`, the key borrowed from the
    /// page: searches compare in place and copy nothing. Panics on
    /// out-of-range (internal invariant).
    #[expect(clippy::expect_used, reason = "node entries are dense, well-formed Normal items")]
    pub fn entry_ref(&self, idx: usize) -> ((&'a [u8], Tid), u32) {
        let item = self.page.item(idx as u16);
        item.and_then(|item| split_entry(item, self.is_leaf())).expect("node entry")
    }

    /// All entries in order, owned.
    pub fn all_entries(&self) -> Vec<NodeEntry> {
        let entry = |idx| {
            let ((key, tid), child) = self.entry_ref(idx);
            NodeEntry { key: key.to_vec(), tid, child }
        };
        (0..self.count()).map(entry).collect()
    }

    /// First index whose entry sorts at or after `(key, tid)`.
    pub fn insertion_index(&self, key: &[u8], tid: Tid) -> usize {
        let mut lo = 0usize;
        let mut hi = self.count();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.entry_ref(mid).0 < (key, tid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the child to descend into for `(key, tid)`: the last
    /// separator at or before the probe, clamped to the first child.
    pub fn child_index_for(&self, key: &[u8], tid: Tid) -> usize {
        let idx = self.insertion_index(key, tid);
        if idx < self.count() && self.entry_ref(idx).0 == (key, tid) {
            idx
        } else {
            idx.saturating_sub(1)
        }
    }
}

/// Initialize a node page's special area.
impl NodeView<'_, &mut [u8]> {
    /// Initialize a node page's special area.
    pub fn init_special<B: AsRef<[u8]> + AsMut<[u8]>>(
        page: &mut Page<B>,
        level: u16,
        left: u32,
        right: u32,
    ) {
        let sp = page.special_mut();
        sp[0..2].copy_from_slice(&level.to_le_bytes());
        sp[2..4].fill(0);
        sp[4..8].copy_from_slice(&left.to_le_bytes());
        sp[8..12].copy_from_slice(&right.to_le_bytes());
        sp[12..16].fill(0);
    }

    /// Set the left sibling pointer.
    pub fn set_left<B: AsRef<[u8]> + AsMut<[u8]>>(page: &mut Page<B>, block: u32) {
        page.special_mut()[4..8].copy_from_slice(&block.to_le_bytes());
    }

    /// Set the right sibling pointer.
    pub fn set_right<B: AsRef<[u8]> + AsMut<[u8]>>(page: &mut Page<B>, block: u32) {
        page.special_mut()[8..12].copy_from_slice(&block.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_pages::alloc_page;

    #[test]
    fn entry_roundtrip_leaf_and_internal() {
        let e = NodeEntry { key: b"hello".to_vec(), tid: Tid::new(3, 4), child: 77 };
        let leaf = e.encode(true);
        assert_eq!(split_entry(&leaf, true), Some(((&e.key[..], e.tid), 0)));
        let internal = e.encode(false);
        assert_eq!(split_entry(&internal, false).unwrap().1, 77);
        assert_eq!(split_entry(&leaf[..leaf.len() - 1], true), None, "a cut tid");
        assert_eq!(split_entry(&leaf, false), None, "a leaf entry has no child");
    }

    #[test]
    fn cmp_orders_by_key_then_tid() {
        let e = NodeEntry { key: b"b".to_vec(), tid: Tid::new(1, 1), child: 0 };
        assert_eq!(e.cmp_key(b"a", Tid::new(9, 9)), Ordering::Greater);
        assert_eq!(e.cmp_key(b"c", Tid::new(0, 0)), Ordering::Less);
        assert_eq!(e.cmp_key(b"b", Tid::new(1, 0)), Ordering::Greater);
        assert_eq!(e.cmp_key(b"b", Tid::new(1, 1)), Ordering::Equal);
        assert_eq!(e.cmp_key(b"b", Tid::new(1, 2)), Ordering::Less);
    }

    #[test]
    fn special_area_roundtrip() {
        let mut buf = alloc_page();
        let mut page = Page::new(&mut buf[..]);
        page.init::<NODE_SPECIAL>();
        NodeView::<&mut [u8]>::init_special(&mut page, 2, 5, 9);
        {
            let ro = Page::new(&buf[..]);
            let view = NodeView::new(&ro);
            assert_eq!(view.level(), 2);
            assert!(!view.is_leaf());
            assert_eq!(view.left(), 5);
            assert_eq!(view.right(), 9);
        }
        let mut page = Page::new(&mut buf[..]);
        NodeView::<&mut [u8]>::set_right(&mut page, 42);
        NodeView::<&mut [u8]>::set_left(&mut page, 41);
        let ro = Page::new(&buf[..]);
        let view = NodeView::new(&ro);
        assert_eq!((view.left(), view.right()), (41, 42));
    }

    #[test]
    fn meta_roundtrip() {
        let mut buf = alloc_page();
        let mut page = Page::new(&mut buf[..]);
        page.init::<META_SPECIAL>();
        meta_set(&mut page, 17, 3);
        let ro = Page::new(&buf[..]);
        assert_eq!(meta_get(&ro), (17, 3));
    }

    #[test]
    fn binary_search_positions() {
        let mut buf = alloc_page();
        let mut page = Page::new(&mut buf[..]);
        page.init::<NODE_SPECIAL>();
        NodeView::<&mut [u8]>::init_special(&mut page, 0, 0, 0);
        for (i, k) in [b"aa", b"cc", b"ee"].iter().enumerate() {
            let e = NodeEntry { key: k.to_vec(), tid: Tid::new(0, i as u16), child: 0 };
            assert!(page.insert_item_at(i as u16, &e.encode(true)));
        }
        let ro = Page::new(&buf[..]);
        let view = NodeView::new(&ro);
        assert_eq!(view.insertion_index(b"aa", Tid::new(0, 0)), 0);
        assert_eq!(view.insertion_index(b"bb", Tid::new(0, 0)), 1);
        assert_eq!(view.insertion_index(b"cc", Tid::new(0, 1)), 1);
        assert_eq!(view.insertion_index(b"zz", Tid::new(0, 0)), 3);
        assert_eq!(view.child_index_for(b"aa", Tid::new(0, 0)), 0);
        assert_eq!(view.child_index_for(b"bb", Tid::new(0, 0)), 0);
        assert_eq!(view.child_index_for(b"dd", Tid::new(0, 0)), 1);
        assert_eq!(view.child_index_for(b"zz", Tid::new(0, 0)), 2);
        // Probe below the first separator clamps to child 0.
        assert_eq!(view.child_index_for(b"a", Tid::new(0, 0)), 0);
    }
}
