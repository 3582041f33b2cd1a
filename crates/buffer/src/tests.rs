use super::*;
use pglo_sim::SimContext;
use pglo_smgr::MemSmgr;

/// The host file system, in process mode.
fn host() -> Arc<dyn pglo_smgr::Vfs> {
    pglo_smgr::HostVfs::shared(pglo_smgr::Durability::Process)
}

/// A log under `dir` on the host, in process mode.
fn open_wal(dir: &std::path::Path, segment_bytes: u64) -> Arc<pglo_wal::Wal> {
    Arc::new(pglo_wal::Wal::open(host(), dir, segment_bytes).unwrap())
}

fn setup(frames: usize) -> (Arc<SmgrSwitch>, SmgrId, BufferPool) {
    let sim = SimContext::default_1992();
    let switch = Arc::new(SmgrSwitch::new());
    let id = switch.register(Arc::new(MemSmgr::new(sim)));
    let pool = BufferPool::new(Arc::clone(&switch), frames);
    (switch, id, pool)
}

fn setup_opts(opts: PoolOptions) -> (Arc<SmgrSwitch>, SmgrId, BufferPool) {
    let sim = SimContext::default_1992();
    let switch = Arc::new(SmgrSwitch::new());
    let id = switch.register(Arc::new(MemSmgr::new(sim)));
    let pool = BufferPool::with_options(Arc::clone(&switch), opts);
    (switch, id, pool)
}

#[test]
fn new_page_then_pin_roundtrip() {
    let (switch, id, pool) = setup(8);
    switch.get(id).unwrap().create(1).unwrap();
    let (block, page) = pool
        .new_page(id, 1, |p| {
            p[0] = 0x42;
        })
        .unwrap();
    assert_eq!(block, 0);
    assert_eq!(page.read()[0], 0x42);
    drop(page);
    let again = pool.pin(PageKey::new(id, 1, 0)).unwrap();
    assert_eq!(again.read()[0], 0x42);
    let stats = pool.stats();
    assert_eq!(stats.hits, 1, "second access must be a hit");
}

#[test]
fn dirty_pages_written_back_on_eviction() {
    let (switch, id, pool) = setup(2);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for _ in 0..4 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    // Dirty block 0, then pin two other pages simultaneously: with only
    // two frames, block 0's frame must be evicted (write-back caching
    // keeps dirty pages resident while clean victims exist, so real
    // pressure is needed).
    {
        let p = pool.pin(PageKey::new(id, 1, 0)).unwrap();
        p.write()[7] = 99;
    }
    let keep1 = pool.pin(PageKey::new(id, 1, 1)).unwrap();
    let keep2 = pool.pin(PageKey::new(id, 1, 2)).unwrap();
    // Read block 0 straight from the storage manager.
    let mut out = pglo_pages::alloc_page();
    smgr.read(1, 0, &mut out).unwrap();
    assert_eq!(out[7], 99, "eviction must write dirty pages back");
    assert!(pool.stats().writebacks >= 1);
    drop(keep1);
    drop(keep2);
}

#[test]
fn flush_all_persists_without_eviction() {
    let (switch, id, pool) = setup(8);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
    p.write()[3] = 7;
    drop(p);
    pool.flush_all().unwrap();
    let mut out = pglo_pages::alloc_page();
    smgr.read(1, 0, &mut out).unwrap();
    assert_eq!(out[3], 7);
}

#[test]
fn pool_exhausted_when_all_pinned() {
    let (switch, id, pool) = setup(2);
    switch.get(id).unwrap().create(1).unwrap();
    let (_, _p0) = pool.new_page(id, 1, |_| {}).unwrap();
    let (_, _p1) = pool.new_page(id, 1, |_| {}).unwrap();
    let result = pool.new_page(id, 1, |_| {});
    assert!(
        matches!(result, Err(BufferError::PoolExhausted)),
        "expected PoolExhausted, got ok={}",
        result.is_ok()
    );
}

#[test]
fn pinned_pages_survive_pressure() {
    let (switch, id, pool) = setup(3);
    switch.get(id).unwrap().create(1).unwrap();
    let (b0, keep) = pool
        .new_page(id, 1, |p| {
            p[0] = 0xEE;
        })
        .unwrap();
    for _ in 0..8 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    assert_eq!(keep.read()[0], 0xEE, "pinned frame must not be evicted");
    drop(keep);
    let again = pool.pin(PageKey::new(id, 1, b0)).unwrap();
    assert_eq!(again.read()[0], 0xEE);
}

#[test]
fn discard_rel_drops_dirty_pages() {
    let (switch, id, pool) = setup(4);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
    p.write()[0] = 1;
    drop(p);
    pool.discard_rel(id, 1);
    // The dirty byte is gone: storage still has the extend-time image.
    let mut out = pglo_pages::alloc_page();
    smgr.read(1, 0, &mut out).unwrap();
    assert_eq!(out[0], 0);
}

#[test]
fn hit_avoids_device_io() {
    let (switch, id, pool) = setup(4);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
    drop(p);
    smgr.reset_io_stats();
    for _ in 0..10 {
        let p = pool.pin(PageKey::new(id, 1, 0)).unwrap();
        drop(p);
    }
    assert_eq!(smgr.io_stats().reads, 0, "hits must not touch the device");
    assert_eq!(pool.stats().hits, 10);
}

#[test]
fn concurrent_pins_consistent() {
    let (switch, id, pool) = setup(16);
    switch.get(id).unwrap().create(1).unwrap();
    for i in 0..8u8 {
        let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i).unwrap();
        drop(p);
    }
    let pool = Arc::new(pool);
    let mut handles = Vec::new();
    for t in 0..4 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            for round in 0..50 {
                let b = (t + round) % 8;
                let p = pool.pin(PageKey::new(id, 1, b as u32)).unwrap();
                assert_eq!(p.read()[0], b as u8);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A pool of N frames is one N-page cache: a working set that fits
/// stays resident under rescans.
#[test]
fn full_pool_rescans_hit_every_page() {
    let (switch, id, pool) = setup(64);
    switch.get(id).unwrap().create(1).unwrap();
    for _ in 0..64 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    pool.reset_stats();
    for _ in 0..2 {
        for b in 0..64 {
            drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
        }
    }
    let stats = pool.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (128, 0, 0), "{stats:?}");
}

/// Any `frames - 1` distinct pages can be pinned at once: exhaustion
/// means every frame is pinned, not that a key's corner of the pool is.
#[test]
fn all_but_one_frame_pin_at_once() {
    let (switch, id, pool) = setup(64);
    switch.get(id).unwrap().create(1).unwrap();
    for _ in 0..63 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    pool.discard_rel(id, 1);
    let pins: Vec<_> = (0..63)
        .map(|b| pool.pin(PageKey::new(id, 1, b)).unwrap_or_else(|e| panic!("pin {b}: {e}")))
        .collect();
    assert_eq!(pool.pinned_frames(), 63);
    drop(pins);
}

#[test]
fn sequential_hint_prefetches_window() {
    // Default latency gate: MemSmgr charges the NVRAM profile
    // (~82 µs/page on the simulated clock), so the gate must engage
    // on the scan's first misses and read-ahead must proceed.
    let (switch, id, pool) = setup_opts(PoolOptions {
        frames: 128,
        readahead_window: 16,
        readahead_gate_ns: DEFAULT_READAHEAD_GATE_NS,
    });
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for i in 0..64 {
        let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i as u8).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    // Evict everything so the scan starts cold.
    pool.discard_rel(id, 1);
    smgr.reset_io_stats();
    pool.reset_stats();
    for b in 0..64u32 {
        let p = pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap();
        assert_eq!(p.read()[0], b as u8);
    }
    let stats = pool.stats();
    assert!(stats.prefetch_pages > 0, "read-ahead must install pages: {stats:?}");
    assert!(stats.prefetch_hits > 0, "scan must consume prefetched pages: {stats:?}");
    // Gate warmup: the clamped seed needs two ⅛-step folds to cross
    // the threshold (b0..b2), and the disengaged early-return skips
    // the run tracker, so detection restarts at b3/b4 — the first
    // prefetched pin is b5. Everything after must hit.
    assert!(stats.misses <= 6, "nearly all pins after the run is detected must hit: {stats:?}");
    assert_eq!(stats.hits + stats.misses, 64);
    // The device saw batched reads, not one op per block.
    assert!(
        smgr.io_stats().reads < 64,
        "read_many must batch device ops, saw {}",
        smgr.io_stats().reads
    );
}

#[test]
fn random_hint_never_prefetches() {
    let (switch, id, pool) =
        setup_opts(PoolOptions { frames: 64, readahead_window: 16, readahead_gate_ns: 0 });
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for _ in 0..32 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    pool.discard_rel(id, 1);
    pool.reset_stats();
    for b in 0..32u32 {
        drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
    }
    let stats = pool.stats();
    assert_eq!(stats.prefetch_pages, 0);
    assert_eq!(stats.misses, 32);
}

#[test]
fn prefetched_pages_never_clobber_dirty_data() {
    // A page dirtied between read-ahead planning and install must not
    // be overwritten by the stale device image: install-if-absent.
    let (switch, id, pool) =
        setup_opts(PoolOptions { frames: 64, readahead_window: 8, readahead_gate_ns: 0 });
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for _ in 0..16 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    // Dirty block 5 in the pool (not yet flushed).
    let p5 = pool.pin(PageKey::new(id, 1, 5)).unwrap();
    p5.write()[0] = 0xAB;
    drop(p5);
    // Sequential scan from 0 prefetches over block 5; resident pages
    // are skipped, so the dirty image survives.
    for b in 0..8u32 {
        let p = pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap();
        if b == 5 {
            assert_eq!(p.read()[0], 0xAB, "dirty page must survive read-ahead");
        }
    }
}

#[test]
fn bgwriter_cleans_dirty_pages() {
    let (switch, id, pool) = setup(16);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    let pool = Arc::new(pool);
    let mut bg = pool.spawn_bgwriter(Duration::from_millis(1)).unwrap();
    for i in 0..8 {
        let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i as u8).unwrap();
        drop(p);
    }
    // Wait for the writer to drain everything.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let done = (0..8u32).all(|b| {
            let mut out = pglo_pages::alloc_page();
            smgr.read(1, b, &mut out).is_ok() && out[0] == b as u8
        });
        if done {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "bgwriter never flushed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = pool.stats();
    assert!(stats.bgwriter_pages >= 8, "writer must account its flushes: {stats:?}");
    assert!(stats.bgwriter_cycles >= 1);
    bg.stop();
}

#[test]
fn bgwriter_drains_on_shutdown() {
    let (switch, id, pool) = setup(16);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    let pool = Arc::new(pool);
    // Long interval: the only flush chance is the shutdown drain.
    let mut bg = pool.spawn_bgwriter(Duration::from_secs(3600)).unwrap();
    // Give the thread its initial cycle before dirtying pages.
    std::thread::sleep(Duration::from_millis(20));
    let (b, p) = pool.new_page(id, 1, |pg| pg[0] = 0x5A).unwrap();
    drop(p);
    bg.stop();
    let mut out = pglo_pages::alloc_page();
    smgr.read(1, b, &mut out).unwrap();
    assert_eq!(out[0], 0x5A, "shutdown drain must flush dirty pages");
}

#[test]
fn failed_writeback_keeps_pool_consistent() {
    // Eviction-time write-back of a dirty page the device refuses (a
    // burned WORM block) must propagate the error WITHOUT leaking a
    // pinned frame, losing the dirty page, or leaving a mapping that
    // points at another page's bytes.
    use pglo_smgr::WormSmgr;
    let sim = SimContext::default_1992();
    let switch = Arc::new(SmgrSwitch::new());
    let worm = Arc::new(WormSmgr::new(sim));
    let id = switch.register(Arc::clone(&worm) as _);
    let pool = BufferPool::with_options(
        Arc::clone(&switch),
        PoolOptions { frames: 2, readahead_window: 0, readahead_gate_ns: 0 },
    );
    switch.get(id).unwrap().create(1).unwrap();
    let (b0, p) = pool.new_page(id, 1, |pg| pg[0] = 1).unwrap();
    drop(p);
    let (b1, p) = pool.new_page(id, 1, |pg| pg[0] = 2).unwrap();
    drop(p);
    pool.flush_all().unwrap();
    worm.sync_all().unwrap(); // burn both blocks: further writes refuse
                              // Re-dirty both resident pages: every unpinned frame now holds a
                              // dirty page whose write-back must fail.
    for (b, v) in [(b0, 0xA1u8), (b1, 0xB2)] {
        let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
        p.write()[1] = v;
    }
    // No clean victim can be produced: the allocation must surface the
    // device error, not PoolExhausted and not silent corruption.
    let err = pool.new_page(id, 1, |_| {});
    assert!(
        matches!(err, Err(BufferError::Smgr(SmgrError::WormOverwrite { .. }))),
        "burned-block write-back must propagate: got ok={}",
        err.is_ok()
    );
    // Repeatedly: if the failure path leaked its pin or its mapping,
    // later attempts would degrade to PoolExhausted or wrong pages.
    for _ in 0..3 {
        assert!(matches!(
            pool.new_page(id, 1, |_| {}),
            Err(BufferError::Smgr(SmgrError::WormOverwrite { .. }))
        ));
    }
    // The dirty pages survived, mapped and intact.
    for (b, v) in [(b0, 0xA1u8), (b1, 0xB2)] {
        let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
        assert_eq!(p.read()[1], v, "dirty page must survive failed write-back");
    }
}

#[test]
fn sequential_scan_races_append() {
    // A sequential scan's read-ahead window can run past EOF while a
    // writer is appending: the prefetcher may install a just-allocated
    // block before new_page claims it. new_page must re-own that frame
    // (the old code debug_assert-ed), and readers must always see the
    // init image, never the stale device image.
    let (switch, id, pool) =
        setup_opts(PoolOptions { frames: 128, readahead_window: 16, readahead_gate_ns: 0 });
    switch.get(id).unwrap().create(1).unwrap();
    for i in 0..8u32 {
        let (_, p) = pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    let pool = Arc::new(pool);
    let writer = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            for _ in 8..512u32 {
                let (b, p) = pool
                    .new_page(id, 1, |pg| {
                        pg[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                    })
                    .unwrap();
                p.write()[..4].copy_from_slice(&b.to_le_bytes());
            }
        })
    };
    let scanner = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            for round in 0..4 {
                for b in 0..(128 + round * 96) {
                    let key = PageKey::new(id, 1, b);
                    let Ok(p) = pool.pin_with_hint(key, AccessHint::Sequential) else {
                        continue; // scanned past current EOF
                    };
                    let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
                    // Racing an append, a block may transiently show
                    // the fresh device image (0) or the init image
                    // (u32::MAX) until the appender's first write
                    // lands — but never ANOTHER block's number, which
                    // would mean a mapping pointed at foreign bytes.
                    assert!(
                        got == b || got == u32::MAX || got == 0,
                        "block {b} holds foreign image {got}"
                    );
                }
            }
        })
    };
    writer.join().unwrap();
    scanner.join().unwrap();
    for b in 0..512u32 {
        let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
        let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
        assert_eq!(got, b, "appended block must keep its final image");
    }
}

#[test]
fn concurrent_stress_stats_add_up() {
    // Many threads pinning/unpinning under eviction pressure. Asserts
    // termination (no deadlock), hits + misses == pins, and that pinned
    // pages survive.
    let (switch, id, pool) =
        setup_opts(PoolOptions { frames: 64, readahead_window: 0, readahead_gate_ns: 0 });
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    const BLOCKS: u32 = 256; // 4x the pool: constant eviction pressure
    for i in 0..BLOCKS {
        let (_, p) = pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    pool.reset_stats();
    let pool = Arc::new(pool);
    // Hold a few pins with sentinel writes for the duration.
    let sentinels: Vec<_> = (0..4u32)
        .map(|i| {
            let p = pool.pin(PageKey::new(id, 1, i * 37)).unwrap();
            p.write()[4] = 0xC0 + i as u8;
            p
        })
        .collect();
    const THREADS: u64 = 8;
    const PINS_PER_THREAD: u64 = 500;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            // Deterministic pseudo-random walk, distinct per thread.
            let mut x = t * 2654435761 + 12345;
            for _ in 0..PINS_PER_THREAD {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((x >> 33) % BLOCKS as u64) as u32;
                let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
                let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
                assert_eq!(got, b, "frame content must match its key");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Sentinel pins never got evicted.
    for (i, p) in sentinels.iter().enumerate() {
        assert_eq!(p.read()[4], 0xC0 + i as u8, "pinned page {i} must survive pressure");
    }
    drop(sentinels);
    let stats = pool.stats();
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * PINS_PER_THREAD + 4, // + the 4 sentinel pins
        "every pin is exactly one hit or one miss: {stats:?}"
    );
    assert!(stats.evictions > 0, "walk over 4x the pool must evict");
}

#[test]
fn pending_chain_drains_and_rebuilds() {
    let (switch, id, pool) = setup(8);
    switch.get(id).unwrap().create(1).unwrap();
    let dir = tempfile::tempdir().unwrap();
    let wal = open_wal(dir.path(), pglo_wal::DEFAULT_SEGMENT_BYTES);
    assert!(pool.set_wal(Arc::clone(&wal)));
    // Three new pages chain three frames; re-dirtying one of them
    // must not chain it twice.
    let mut keys = Vec::new();
    for _ in 0..3 {
        let (block, p) = pool.new_page(id, 1, |_| {}).unwrap();
        keys.push(PageKey::new(id, 1, block));
        drop(p);
    }
    let p = pool.pin(keys[0]).unwrap();
    p.write()[0] = 1;
    drop(p);
    assert_eq!(pool.capture_backlog(), 3);
    let end = pool.capture_pending().unwrap();
    assert!(end > 0, "capture must log the chained images");
    assert_eq!(pool.capture_backlog(), 0);
    assert_eq!(pool.capture_pending().unwrap(), 0, "chain drained");
    // A captured frame re-dirtied after the drain chains again and a
    // second capture logs a fresh image past the first.
    let p = pool.pin(keys[1]).unwrap();
    p.write()[0] = 2;
    drop(p);
    assert_eq!(pool.capture_backlog(), 1);
    let end2 = pool.capture_pending().unwrap();
    assert!(end2 > end, "second capture must append past the first");
}

/// Each record of a page is a delta against the page's bytes at its
/// previous record — a word set back to zero is logged like any other
/// change — and a capture whose append fails puts the frame back on the
/// chain to log the whole page. Replaying the records in order over
/// zeros rebuilds every version.
#[test]
fn deltas_track_the_last_logged_bytes() {
    let (switch, id, pool) = setup(8);
    switch.get(id).unwrap().create(1).unwrap();
    let dir = tempfile::tempdir().unwrap();
    let seg = pglo_wal::MIN_SEGMENT_BYTES;
    let wal = open_wal(dir.path(), seg);
    assert!(pool.set_wal(Arc::clone(&wal)));
    let (block, p) = pool.new_page(id, 1, |pg| pg.fill(0xAA)).unwrap();
    drop(p);
    let key = PageKey::new(id, 1, block);
    let edit = |f: &dyn Fn(&mut PageBuf)| f(&mut pool.pin(key).unwrap().write());
    let mut versions = vec![pool.pin(key).unwrap().read().to_vec()];
    pool.capture_pending().unwrap();
    edit(&|pg| {
        pg[..8].fill(0);
        pg[1000] = 1;
    });
    versions.push(pool.pin(key).unwrap().read().to_vec());
    pool.capture_pending().unwrap();
    // Leave less room in the segment than the next record needs, and
    // make rotation fail.
    while seg - wal.end_lsn() % seg >= 64 {
        wal.append(&pglo_wal::WalRecord::Commit { xid: 1, ts: 1 }).unwrap();
    }
    let blocker = dir.path().join(format!("{seg:016x}.seg"));
    std::fs::create_dir(&blocker).unwrap();
    edit(&|pg| pg[200] = 7);
    versions.push(pool.pin(key).unwrap().read().to_vec());
    assert!(pool.capture_pending().is_err());
    assert_eq!(pool.capture_backlog(), 1, "the frame is back on the chain");
    std::fs::remove_dir(&blocker).unwrap();
    pool.capture_pending().unwrap();
    wal.flush_all().unwrap();

    let records: Vec<u32> = pglo_wal::Wal::scan_records(&host(), dir.path(), seg)
        .unwrap()
        .into_iter()
        .filter(|r| r.kind == pglo_wal::KIND_PAGE_DELTA)
        .map(|r| r.total_len)
        .collect();
    let whole = (pglo_wal::HEADER_BYTES + 16 + 4 + PAGE_SIZE) as u32;
    let two_words = (pglo_wal::HEADER_BYTES + 16 + 2 * (4 + 8)) as u32;
    assert_eq!(records, [whole, two_words, whole]);
    let mut page = pglo_pages::alloc_page();
    let mut i = 0;
    wal.replay(|_, rec| {
        if let pglo_wal::WalRecord::PageDelta { ranges, .. } = rec {
            ranges.apply(&mut page);
            assert!(page[..] == versions[i][..], "record {i} must rebuild version {i}");
            i += 1;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(i, 3);
}

/// A device that notes, at each home write, how far the redo log was
/// durable at that moment.
struct LogWatchSmgr {
    inner: MemSmgr,
    wal: Arc<Wal>,
    /// `(block, flushed LSN when the write arrived)`.
    writes: Mutex<Vec<(u32, Lsn)>>,
}

impl pglo_smgr::StorageManager for LogWatchSmgr {
    fn name(&self) -> &str {
        "log_watch"
    }
    fn create(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
        self.inner.create(rel)
    }
    fn exists(&self, rel: RelFileId) -> bool {
        self.inner.exists(rel)
    }
    fn unlink(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
        self.inner.unlink(rel)
    }
    fn nblocks(&self, rel: RelFileId) -> pglo_smgr::Result<u32> {
        self.inner.nblocks(rel)
    }
    fn extend(&self, rel: RelFileId, page: &PageBuf) -> pglo_smgr::Result<u32> {
        self.inner.extend(rel, page)
    }
    fn allocate(&self, rel: RelFileId) -> pglo_smgr::Result<u32> {
        self.inner.allocate(rel)
    }
    fn read(&self, rel: RelFileId, block: u32, out: &mut PageBuf) -> pglo_smgr::Result<()> {
        self.inner.read(rel, block, out)
    }
    fn write(&self, rel: RelFileId, block: u32, page: &PageBuf) -> pglo_smgr::Result<()> {
        self.writes.lock().push((block, self.wal.flushed_lsn()));
        self.inner.write(rel, block, page)
    }
    fn sync(&self, rel: RelFileId) -> pglo_smgr::Result<()> {
        self.inner.sync(rel)
    }
    fn io_stats(&self) -> pglo_sim::stats::IoSnapshot {
        self.inner.io_stats()
    }
    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

/// A dirty frame whose delta was never captured must not go home
/// silently: eviction, the forced flush and the skipping flush all log
/// the image first and have it durable by the time the device sees the
/// page, so replay can always reconstruct what the home location holds.
#[test]
fn write_back_logs_pending_image_first() {
    let dir = tempfile::tempdir().unwrap();
    let wal = open_wal(dir.path(), pglo_wal::DEFAULT_SEGMENT_BYTES);
    let watch = Arc::new(LogWatchSmgr {
        inner: MemSmgr::new(SimContext::default_1992()),
        wal: Arc::clone(&wal),
        writes: Mutex::new(Vec::new()),
    });
    let switch = Arc::new(SmgrSwitch::new());
    let id = switch.register(Arc::clone(&watch) as _);
    let pool = BufferPool::new(Arc::clone(&switch), 2);
    assert!(pool.set_wal(Arc::clone(&wal)));
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for _ in 0..4 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    pool.capture_pending().unwrap();
    pool.flush_all().unwrap();
    // Each path dirties one block — `log_pending` set, no capture
    // runs — and then drives it home in its own wait mode.
    type Path<'a> = (&'a str, u32, usize, &'a dyn Fn(&BufferPool));
    let paths: [Path<'_>; 3] = [
        // Blocking, through `claim_frame`: two simultaneous pins in a
        // two-frame pool force the dirty frame out.
        ("eviction", 0, 7, &|pool| {
            let _keep1 = pool.pin(PageKey::new(id, 1, 1)).unwrap();
            let _keep2 = pool.pin(PageKey::new(id, 1, 2)).unwrap();
        }),
        ("flush_all", 3, 9, &|pool| pool.flush_all().unwrap()),
        ("flush_dirty_batch", 1, 11, &|pool| assert_eq!(pool.flush_dirty_batch(), 1)),
    ];
    for (path, block, at, drive) in paths {
        {
            let p = pool.pin(PageKey::new(id, 1, block)).unwrap();
            p.write()[at] = 99;
        }
        let mark = wal.end_lsn();
        watch.writes.lock().clear();
        drive(&pool);
        // Nothing else appends, so the log now ends with the image.
        let image_end = wal.end_lsn();
        assert!(image_end > mark, "{path} of a never-captured frame must log its image");
        let durable_at_write = watch.writes.lock().iter().find(|(b, _)| *b == block).map(|w| w.1);
        assert!(
            durable_at_write.is_some_and(|durable| durable >= image_end),
            "{path}: image must be durable before the home write, saw {durable_at_write:?} \
             for an image ending at {image_end}"
        );
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, block, &mut out).unwrap();
        assert_eq!(out[at], 99, "{path} must still write the page home");
    }
    // Every change is in the log with the bytes that went home: the
    // deltas, applied in log order over the fresh pages' zeros, rebuild
    // each page.
    drop((pool, smgr, switch, watch, wal));
    let wal = open_wal(dir.path(), pglo_wal::DEFAULT_SEGMENT_BYTES);
    let mut logged: Vec<Box<PageBuf>> = (0..4).map(|_| pglo_pages::alloc_page()).collect();
    wal.replay(|_, rec| {
        if let pglo_wal::WalRecord::PageDelta { rel: 1, block, ranges, .. } = rec {
            ranges.apply(&mut logged[block as usize]);
        }
        Ok(())
    })
    .unwrap();
    for (path, block, at, _) in paths {
        assert_eq!(logged[block as usize][at], 99, "{path} delta must be replayable");
    }
}

/// Skip mode never parks the flusher: a frame someone holds latched is
/// passed over and stays dirty, the rest of the batch goes home.
#[test]
fn skip_mode_never_blocks_on_a_held_latch() {
    let (switch, id, pool) = setup(8);
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for i in 0..4u8 {
        let (_, p) = pool.new_page(id, 1, |pg| pg[0] = i + 1).unwrap();
        drop(p);
    }
    let pool = Arc::new(pool);
    let flush_elsewhere = || {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = Arc::clone(&pool);
        let flusher = std::thread::spawn(move || tx.send(pool.flush_dirty_batch()));
        let written = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("skip mode must return while the latch is still held");
        flusher.join().unwrap().unwrap();
        written
    };
    let home = |block: u32| {
        let mut out = pglo_pages::alloc_page();
        smgr.read(1, block, &mut out).unwrap();
        out[0]
    };
    // A pinned page under its writer's guard: the walk passes it over.
    let held = pool.pin(PageKey::new(id, 1, 0)).unwrap();
    let guard = held.write();
    assert_eq!(flush_elsewhere(), 3, "the three free frames go home");
    drop(guard);
    drop(held);
    assert_eq!((home(0), home(1), home(2), home(3)), (0, 2, 3, 4));
    // An unpinned frame under a reader's latch: the walk lists it (a
    // shared latch lets the peek through) and the write-back's
    // try-latch gives up on it.
    let key = PageKey::new(id, 1, 0);
    let idx = pool.lookup(&pool.table.lock(), &key).unwrap();
    let reader = pool.frames[idx].data.read();
    assert_eq!(flush_elsewhere(), 0, "the one dirty frame is latched");
    assert!(reader.dirty, "a skipped frame stays dirty");
    drop(reader);
    assert_eq!(pool.flush_dirty_batch(), 1);
    assert_eq!(home(0), 1);
}

/// The latency gate keeps the window shut when the configured
/// threshold sits above what the device delivers, and opens it when
/// the threshold sits below — deterministic via the simulated clock
/// (MemSmgr charges ~82 µs per 8 KB page).
#[test]
fn readahead_gate_follows_observed_latency() {
    let scan = |gate_ns: u64| {
        let (switch, id, pool) = setup_opts(PoolOptions {
            frames: 128,
            readahead_window: 16,
            readahead_gate_ns: gate_ns,
        });
        let smgr = switch.get(id).unwrap();
        smgr.create(1).unwrap();
        for _ in 0..64 {
            let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
            drop(p);
        }
        pool.flush_all().unwrap();
        pool.discard_rel(id, 1);
        pool.reset_stats();
        for b in 0..64u32 {
            drop(pool.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap());
        }
        (pool.stats(), pool.readahead_engaged(), pool.read_latency_ewma_ns())
    };
    // Gate far above the simulated latency: never engages.
    let (stats, engaged, ewma) = scan(10_000_000_000);
    assert!(!engaged, "82 µs reads must not clear a 10 s gate (ewma {ewma})");
    assert_eq!(stats.prefetch_pages, 0, "closed gate must suppress read-ahead: {stats:?}");
    assert_eq!(stats.hits, 0, "no read-ahead, no hits on a cold scan: {stats:?}");
    // Gate below it: engages on the first miss, read-ahead proceeds.
    let (stats, engaged, ewma) = scan(1_000);
    assert!(engaged, "82 µs reads must clear a 1 µs gate (ewma {ewma})");
    assert!(stats.prefetch_pages > 0, "open gate must read ahead: {stats:?}");
    assert!(ewma >= 1_000, "EWMA must reflect the simulated device: {ewma}");
}

/// Heavy re-key churn through a tiny pool exercises slot-array removal
/// (entries shifting back over the hole); pins must stay correct
/// throughout.
#[test]
fn slot_index_survives_rekey_churn() {
    let (switch, id, pool) =
        setup_opts(PoolOptions { frames: 8, readahead_window: 0, readahead_gate_ns: 0 });
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    const BLOCKS: u32 = 64;
    for i in 0..BLOCKS {
        let (_, p) = pool.new_page(id, 1, |pg| pg[..4].copy_from_slice(&i.to_le_bytes())).unwrap();
        drop(p);
    }
    pool.flush_all().unwrap();
    // Several full rotations over 8× the pool: every pin evicts, so
    // every pin removes one slot entry and inserts another.
    for round in 0..8u32 {
        for b in 0..BLOCKS {
            let b = (b + round * 17) % BLOCKS;
            let p = pool.pin(PageKey::new(id, 1, b)).unwrap();
            let got = u32::from_le_bytes(p.read()[..4].try_into().unwrap());
            assert_eq!(got, b, "churned frame must hold its key's bytes");
        }
    }
    // And re-pins of now-resident pages still hit.
    pool.reset_stats();
    let resident: Vec<u32> = (0..BLOCKS)
        .filter(|&b| pool.lookup(&pool.table.lock(), &PageKey::new(id, 1, b)).is_some())
        .collect();
    for &b in &resident {
        drop(pool.pin(PageKey::new(id, 1, b)).unwrap());
    }
    assert_eq!(pool.stats().hits, resident.len() as u64, "resident pages must all hit");
    assert_eq!(pool.pinned_frames(), 0);
}

/// Pages the pool has allocated: those its frames hold plus its spares.
fn allocated_pages(pool: &BufferPool) -> usize {
    pool.stats().pages as usize + pool.pages.lock().spare.len()
}

/// Where frame `idx`'s page lives, if it holds one.
fn page_addr(pool: &BufferPool, idx: usize) -> Option<*const PageBuf> {
    pool.frames[idx].data.read().page.as_deref().map(|page| page as *const PageBuf)
}

/// A frame gets its page at its first install, whichever of the three
/// installs that is (`new_page`, a miss load, read-ahead), and keeps it:
/// a fresh pool holds no page, and after k first installs it has
/// allocated at most k pages plus one refill.
#[test]
fn a_frame_gets_its_page_at_its_first_install() {
    let (switch, id, pool) = setup(256);
    let refill = pool.refill_pages();
    assert_eq!(refill, 4);
    assert_eq!((pool.stats().pages, allocated_pages(&pool)), (0, 0));
    assert!((0..pool.capacity()).all(|idx| page_addr(&pool, idx).is_none()));
    let smgr = switch.get(id).unwrap();
    smgr.create(1).unwrap();
    for k in 1..=40u64 {
        drop(pool.new_page(id, 1, |pg| pg[0] = k as u8).unwrap().1);
        assert_eq!(pool.stats().pages, k);
        assert!(allocated_pages(&pool) <= k as usize + refill, "{} pages", allocated_pages(&pool));
    }
    pool.flush_all().unwrap();

    // Miss loads and read-ahead installs into a second, fresh pool.
    let cold = BufferPool::with_options(
        switch,
        PoolOptions { frames: 256, readahead_gate_ns: 0, ..PoolOptions::default() },
    );
    assert_eq!(cold.stats().pages, 0);
    assert_eq!(cold.pin(PageKey::new(id, 1, 7)).unwrap().read()[0], 8);
    assert_eq!(cold.stats().pages, 1);
    for b in 0..40u32 {
        let p = cold.pin_with_hint(PageKey::new(id, 1, b), AccessHint::Sequential).unwrap();
        assert_eq!(p.read()[0], b as u8 + 1);
    }
    let stats = cold.stats();
    assert!(stats.prefetch_pages > 0, "read-ahead must install pages: {stats:?}");
    let keyed = (0..cold.capacity()).filter(|&idx| cold.frames[idx].data.read().key.is_some());
    assert_eq!(stats.pages as usize, keyed.count(), "every installed frame, and only those");
    assert!(allocated_pages(&cold) <= stats.pages as usize + refill);
}

/// An evicted frame re-keyed to another block keeps the page it has; a
/// pool smaller than 64 frames refills one page at a time.
#[test]
fn a_rekeyed_frame_keeps_its_page() {
    let (switch, id, pool) = setup(2);
    assert_eq!(pool.refill_pages(), 1);
    switch.get(id).unwrap().create(1).unwrap();
    for i in 0..6u8 {
        drop(pool.new_page(id, 1, |pg| pg[0] = i).unwrap().1);
    }
    let before: Vec<_> = (0..2).map(|idx| page_addr(&pool, idx)).collect();
    assert!(before.iter().all(Option::is_some));
    pool.flush_all().unwrap();
    for b in 0..6u32 {
        assert_eq!(pool.pin(PageKey::new(id, 1, b)).unwrap().read()[0], b as u8);
    }
    assert!(pool.stats().evictions >= 6);
    assert_eq!((0..2).map(|idx| page_addr(&pool, idx)).collect::<Vec<_>>(), before);
    assert_eq!((pool.stats().pages, allocated_pages(&pool)), (2, 2));
}
