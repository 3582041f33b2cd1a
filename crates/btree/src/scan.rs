//! Ordered scans over a B-tree.

use crate::node::NodeView;
use crate::{BTree, Result};
use pglo_pages::{Page, Tid};

/// Where a scan begins.
#[derive(Debug, Clone)]
pub enum ScanStart {
    /// First entry at or after `(key, Tid::MIN)`.
    AtOrAfter(Vec<u8>),
    /// The first entry of the tree.
    First,
}

/// A forward scan yielding `(key, tid)` in order.
///
/// The scan materializes one leaf at a time; it does not hold page pins
/// or the tree latch between `next_entry` calls. Each leaf load takes the
/// relation's shared latch, so a scan interleaved with concurrent inserts
/// sees every entry present when it started (splits only move entries
/// into a fresh right sibling, which the leaf chain reaches later); it
/// may additionally see entries inserted mid-scan.
pub struct BTreeScan<'a> {
    tree: &'a BTree,
    /// Entries of the current leaf not yet returned, in reverse order (pop
    /// from the back).
    buffer: Vec<(Vec<u8>, Tid)>,
    /// Next leaf to load, 0 = done.
    next_leaf: u32,
}

impl<'a> BTreeScan<'a> {
    pub(crate) fn position(tree: &'a BTree, start: ScanStart) -> Result<BTreeScan<'a>> {
        // Descent + initial leaf load are atomic w.r.t. splits; a split
        // never moves entries left of the fresh right sibling it creates,
        // so once positioned the leaf chain stays complete (re-latched per
        // leaf in `next_entry`).
        let _guard = tree.latch().lock();
        let mut scan = BTreeScan { tree, buffer: Vec::new(), next_leaf: 0 };
        match start {
            ScanStart::First => {
                // Descend along the leftmost edge.
                let (root, _) = tree.read_meta()?;
                let mut block = root;
                loop {
                    let pinned = tree.env().pool().pin(tree.key(block))?;
                    let next = pinned.with_read(|buf| {
                        let page = Page::new(&buf[..]);
                        let view = NodeView::new(&page);
                        if view.is_leaf() {
                            None
                        } else {
                            Some(view.entry_ref(0).1)
                        }
                    });
                    match next {
                        Some(child) => block = child,
                        None => break,
                    }
                }
                scan.load_leaf(block, 0)?;
            }
            ScanStart::AtOrAfter(key) => {
                let (leaf, idx) = scan.find_leaf_position(&key)?;
                scan.load_leaf(leaf, idx)?;
            }
        }
        Ok(scan)
    }

    /// Leaf block + index of the first entry `>= (key, Tid::MIN)`.
    fn find_leaf_position(&self, key: &[u8]) -> Result<(u32, usize)> {
        let probe_tid = Tid::new(0, 0);
        let (_, leaf) = self.tree.descend_path(key, probe_tid)?;
        let pinned = self.tree.env().pool().pin(self.tree.key(leaf))?;
        let idx = pinned.with_read(|buf| {
            let page = Page::new(&buf[..]);
            NodeView::new(&page).insertion_index(key, probe_tid)
        });
        Ok((leaf, idx))
    }

    /// Fill the buffer from `leaf` starting at entry `from`, and remember
    /// the right sibling.
    fn load_leaf(&mut self, leaf: u32, from: usize) -> Result<()> {
        let pinned = self.tree.env().pool().pin(self.tree.key(leaf))?;
        let (mut entries, right) = pinned.with_read(|buf| {
            let page = Page::new(&buf[..]);
            let view = NodeView::new(&page);
            let entries: Vec<(Vec<u8>, Tid)> = (from..view.count())
                .map(|i| {
                    let ((key, tid), _) = view.entry_ref(i);
                    (key.to_vec(), tid)
                })
                .collect();
            (entries, view.right())
        });
        entries.reverse();
        self.buffer = entries;
        self.next_leaf = right;
        Ok(())
    }

    /// The next `(key, tid)` in order, or `None` at the end.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Tid)>> {
        loop {
            if let Some(e) = self.buffer.pop() {
                return Ok(Some(e));
            }
            if self.next_leaf == 0 {
                return Ok(None);
            }
            let leaf = self.next_leaf;
            let _guard = self.tree.latch().lock();
            self.load_leaf(leaf, 0)?;
        }
    }
}
