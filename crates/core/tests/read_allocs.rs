//! Allocation guard for f-chunk reads: a read makes one index walk and
//! copies each chunk straight from its heap page, so what it allocates
//! does not grow with the chunks it covers. A read that looked each chunk
//! up on its own allocated a TID vector, an owned payload and a plain copy
//! per chunk, and that must not come back quietly. Nor must a cursor that
//! re-opens its object from the catalog on every operation. The counting
//! allocator is why this is a test binary of its own.

use pglo_core::{LoCursor, LoId, LoSpec, LoStore, OpenMode, UserId, CHUNK_SIZE};
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

/// A committed f-chunk object of 20 chunks, and its bytes.
fn twenty_chunks() -> (tempfile::TempDir, Arc<StorageEnv>, LoStore, LoId, Vec<u8>) {
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
    (dir, env, store, id, data)
}

#[test]
fn a_read_allocates_the_same_over_2_chunks_as_over_16() {
    let (_dir, env, store, id, data) = twenty_chunks();
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

/// A descriptor opens its object once per transaction: a second 4 KiB
/// read through a cursor allocates what the same read on an open handle
/// does, plus the chunk buffer a cursor operation does not keep.
#[test]
fn a_cursor_read_costs_a_handle_read_and_one_chunk_buffer() {
    let (_dir, env, store, id, data) = twenty_chunks();
    let txn = env.begin();
    let (last, at) = ((19 * CHUNK_SIZE) as u64, 5 * CHUNK_SIZE + 100);
    let mut buf = vec![0u8; 4096];
    let mut h = store.open(&txn, id, OpenMode::ReadOnly).unwrap();
    h.read_at(last, &mut buf).unwrap();
    let handle = allocs_of(|| assert_eq!(h.read_at(at as u64, &mut buf).unwrap(), buf.len()));
    h.close().unwrap();
    let cur = LoCursor::new(id, OpenMode::ReadOnly, UserId::DBA);
    cur.read_at(&store, Some(&txn), last, &mut buf).unwrap();
    let cursor = allocs_of(|| {
        assert_eq!(cur.read_at(&store, Some(&txn), at as u64, &mut buf).unwrap(), buf.len())
    });
    assert!(buf == data[at..at + buf.len()]);
    txn.commit();
    assert!(
        cursor <= handle + 1,
        "a cursor read made {cursor} allocations, a handle read {handle}"
    );
}
