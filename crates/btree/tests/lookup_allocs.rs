//! Allocation guard for `BTree::lookup`: a point lookup allocates the
//! descent path and the result, whatever the size of the leaf it lands
//! in. The route through `BTreeScan` decoded every entry from the hit to
//! the end of the leaf into an owned key (hundreds of allocations per
//! lookup on 8-byte keys), and that must not come back quietly. The
//! counting allocator is why this is a test binary of its own.

use pglo_btree::keys::{u64_bytes_key, u64_pair_key};
use pglo_btree::BTree;
use pglo_heap::StorageEnv;
use pglo_pages::Tid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (background threads do not count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell<u64>` with a const initialiser, so it never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc`'s, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn lookup_allocates_a_constant_amount_however_full_the_leaf() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    // Shuffled inserts (multiplying by an odd number permutes 0..2^16)
    // leave leaves about two-thirds full: ~150 entries of 24-byte keys.
    const N: u64 = 1 << 16;
    let key = |k: u64| u64_bytes_key(7, &u64_pair_key(k, k));
    let tid = |k: u64| Tid::new((k / 50) as u32, (k % 50) as u16);
    for i in 0..N {
        let k = i * 40_503 % N;
        tree.insert(&key(k), tid(k)).unwrap();
    }
    // An internal node holds at most 203 children ((8192 - 40) / 40), so
    // more leaves than that means a root above internal nodes: height 3.
    let nblocks = tree.nblocks().unwrap();
    assert!(nblocks > 300, "tree must have height 3, has {nblocks} blocks");
    // The probe key and the expected answer are built outside the count.
    let lookup_allocs = |k: u64| {
        let (probe, want, mut hit) = (key(k), vec![tid(k)], Vec::new());
        let n = allocs_of(|| hit = tree.lookup(&probe).unwrap());
        assert_eq!(hit, want);
        n
    };
    let worst = (0..N).step_by(61).map(lookup_allocs).max().unwrap();
    assert!(worst <= 3, "a point lookup allocates its path and its result, not {worst} times");
    // Thin some leaves out: the count does not depend on how much of the
    // leaf lies beyond the hit.
    for k in (0..4096).filter(|k| k % 8 != 0) {
        assert!(tree.delete(&key(k), tid(k)).unwrap());
    }
    let worst = (0..4096).step_by(8).map(lookup_allocs).max().unwrap();
    assert!(worst <= 3, "lookup in a thinned leaf made {worst} allocations");
}
