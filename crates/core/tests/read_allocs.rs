//! Allocation guard for f-chunk reads: a read makes one index walk and
//! copies each chunk straight from its heap page, so what it allocates
//! does not grow with the chunks it covers. A read that looked each chunk
//! up on its own allocated a TID vector, an owned payload and a plain copy
//! per chunk, and that must not come back quietly. The counting allocator
//! is why this is a test binary of its own.

use pglo_core::{LoSpec, LoStore, OpenMode, CHUNK_SIZE};
use pglo_heap::StorageEnv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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
    // SAFETY: the caller's contract is `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout`, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: as for `dealloc`; `new_size` is the caller's, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
fn a_read_allocates_the_same_over_2_chunks_as_over_16() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let store = LoStore::new(Arc::clone(&env));
    let txn = env.begin();
    let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
    let mut h = store.open(&txn, id, OpenMode::ReadWrite).unwrap();
    let data: Vec<u8> = (0..20 * CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
    h.write(&data).unwrap();
    h.close().unwrap();
    txn.commit();
    let read_allocs = |chunks: usize| {
        let txn = env.begin();
        let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; chunks * CHUNK_SIZE];
        // A read of the last chunk first: it fills the handle's chunk cache
        // (its one buffer, made once per handle) and leaves it holding a
        // chunk the counted read does not cover.
        h.read_at((19 * CHUNK_SIZE) as u64, &mut buf[..CHUNK_SIZE]).unwrap();
        let n = allocs_of(|| assert_eq!(h.read_at(0, &mut buf).unwrap(), buf.len()));
        assert!(buf == data[..buf.len()]);
        h.close().unwrap();
        txn.commit();
        n
    };
    let (two, sixteen) = (read_allocs(2), read_allocs(16));
    assert_eq!(two, sixteen, "a read of 2 chunks made {two} allocations, of 16 chunks {sixteen}");
    assert!(two <= 3, "a read allocates its descent path and the range it walks, not {two} times");
}
