//! Unit probes: the public functions of single layers timed directly, in
//! a store of their own, at the index size the workload's objects have.
//! They put a scale on what the ladder cannot split — the time inside
//! `core` that is really `btree`, `heap` and `buffer`.

use crate::backend::R;
use crate::stats::{median, SplitMix64};
use pglo_btree::{keys::u64_key, BTree};
use pglo_buffer::PageKey;
use pglo_heap::{EnvOptions, Heap, StorageEnv};
use pglo_txn::Visibility;
use std::path::Path;
use std::time::Instant;

/// Lookups and fetches timed per probe: enough for a steady median.
const LOOKUPS: usize = 2000;
/// A pool hit costs tens of nanoseconds, below the clock's resolution,
/// so pins are timed in batches of this many.
const PIN_BATCH: usize = 1000;
/// Batches of pins timed; the probe reports their median.
const PIN_BATCHES: usize = 20;

pub struct Probes {
    pub btree_lookup_ns: f64,
    pub btree_insert_ns: f64,
    pub heap_fetch_ns: f64,
    pub heap_insert_ns: f64,
    pub buffer_pin_hit_ns: f64,
}

fn ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_nanos() as f64, v)
}

/// Build one object's worth of chunk tuples (`chunks` of `chunk_bytes`)
/// with their index entries, as the f-chunk layer does, then look them up.
pub fn run(dir: &Path, chunks: usize, chunk_bytes: usize, seed: u64) -> R<Probes> {
    let _ = std::fs::remove_dir_all(dir);
    let es = |e: &dyn std::fmt::Display| format!("probe: {e}");
    // The server's pool, so a probe's pages stay resident as the
    // workload's would when they fit.
    let env = StorageEnv::open_with(dir, EnvOptions { pool_frames: 4096, ..Default::default() })
        .map_err(|e| es(&e))?;
    let heap = Heap::create_anonymous(&env, env.disk_id()).map_err(|e| es(&e))?;
    let index = BTree::create_anonymous(&env, env.disk_id()).map_err(|e| es(&e))?;
    let mut rng = SplitMix64::new(seed, 0, 99);
    let mut payload = vec![0u8; chunk_bytes + 5];
    crate::model::fill(&mut payload, &mut rng);

    let txn = env.begin();
    let (mut heap_insert, mut btree_insert, mut tids) = (Vec::new(), Vec::new(), Vec::new());
    for seq in 0..chunks as u64 {
        let (t, tid) = ns(|| heap.insert(&txn, &payload));
        let tid = tid.map_err(|e| es(&e))?;
        heap_insert.push(t);
        let (t, res) = ns(|| index.insert(&u64_key(seq), tid));
        res.map_err(|e| es(&e))?;
        btree_insert.push(t);
        tids.push(tid);
    }
    let vis = Visibility::for_txn(&txn);
    let (mut btree_lookup, mut heap_fetch) = (Vec::new(), Vec::new());
    for _ in 0..LOOKUPS {
        let seq = rng.below(chunks as u64);
        let (t, found) = ns(|| index.lookup(&u64_key(seq)));
        if found.map_err(|e| es(&e))? != [tids[seq as usize]] {
            return Err(format!("probe: index lookup of chunk {seq} went wrong"));
        }
        btree_lookup.push(t);
        let (t, got) = ns(|| heap.fetch(tids[seq as usize], &vis));
        if got.map_err(|e| es(&e))?.as_deref() != Some(&payload[..]) {
            return Err(format!("probe: heap fetch of chunk {seq} went wrong"));
        }
        heap_fetch.push(t);
    }
    let key = PageKey::new(heap.smgr(), heap.rel(), tids[0].block);
    let mut pin = Vec::new();
    for _ in 0..PIN_BATCHES {
        let (t, res) = ns(|| (0..PIN_BATCH).try_for_each(|_| env.pool().pin(key).map(drop)));
        res.map_err(|e| es(&e))?;
        pin.push(t / PIN_BATCH as f64);
    }
    txn.try_commit().map_err(|e| es(&e))?;
    drop((heap, index, env));
    let _ = std::fs::remove_dir_all(dir);
    Ok(Probes {
        btree_lookup_ns: median(&btree_lookup),
        btree_insert_ns: median(&btree_insert),
        heap_fetch_ns: median(&heap_fetch),
        heap_insert_ns: median(&heap_insert),
        buffer_pin_hit_ns: median(&pin),
    })
}
