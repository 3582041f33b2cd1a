//! Optimistic-pin stress: hammer the lock-free buffer-pool hit path while
//! eviction, relation discard, WAL capture, and the background writer all
//! re-target and re-key frames underneath it.
//!
//! Every page carries a self-describing stamp (block number + relation
//! marker), so any optimistic pin that lands on a frame mid-re-key and
//! survives revalidation with foreign bytes fails the content assert.
//! Runs for `PGLO_STRESS_SECS` wall seconds (default 5, as in CI).
//!
//! The churn and pinner PRNGs are seeded from `PGLO_STRESS_SEED`
//! (default `0x5EED`); the seed in use is printed at the start of the
//! run, so a failing CI log names the exact sequence to replay locally:
//! `PGLO_STRESS_SEED=<seed> cargo test --test pool_stress`.

use pglo_buffer::{AccessHint, BufferPool, PageKey, PoolOptions};
use pglo_sim::SimContext;
use pglo_smgr::{MemSmgr, SmgrSwitch, StorageManager};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relation under constant pin pressure.
const STRESS_REL: u64 = 1;
/// Relation repeatedly created, dirtied, and discarded.
const CHURN_REL: u64 = 2;
/// Byte marking every page of the stress relation.
const STRESS_MARK: u8 = 0xA5;
/// Byte marking churn-relation pages — must never surface through a
/// stress-relation pin.
const CHURN_MARK: u8 = 0xDD;
/// 4x the pool, so pins constantly evict and re-key frames.
const STRESS_BLOCKS: u32 = 256;
const FRAMES: usize = 64;

fn stress_secs() -> u64 {
    std::env::var("PGLO_STRESS_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(5)
}

/// Base seed for every thread's PRNG — decimal or `0x`-hex via
/// `PGLO_STRESS_SEED`, defaulting to the historical `0x5EED`.
fn stress_seed() -> u64 {
    match std::env::var("PGLO_STRESS_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("PGLO_STRESS_SEED={v:?} is not a u64"))
        }
        Err(_) => 0x5EED,
    }
}

/// splitmix64 — deterministic per-thread key sequence.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn optimistic_pins_survive_eviction_discard_and_capture() {
    let seed = stress_seed();
    // Printed up front: an assert in any worker thread aborts before a
    // trailer would run, and the seed is the one thing a failure replay
    // needs.
    eprintln!("pool_stress: PGLO_STRESS_SEED={seed:#x} (secs={})", stress_secs());
    let switch = Arc::new(SmgrSwitch::new());
    let mem = Arc::new(MemSmgr::new(SimContext::default_1992()));
    let id = switch.register(Arc::clone(&mem) as Arc<dyn StorageManager>);
    let pool = Arc::new(BufferPool::with_options(
        Arc::clone(&switch),
        PoolOptions {
            frames: FRAMES,
            readahead_window: 4,
            // NVRAM sim latency sits above the default gate, so the
            // window engages and install_prefetched races the pinners.
            readahead_gate_ns: pglo_buffer::DEFAULT_READAHEAD_GATE_NS,
        },
    ));
    let wal_dir = tempfile::tempdir().unwrap();
    let host = pglo_smgr::HostVfs::shared(pglo_smgr::Durability::Process);
    let wal = Arc::new(
        pglo_wal::Wal::open(host, wal_dir.path(), pglo_wal::DEFAULT_SEGMENT_BYTES).unwrap(),
    );
    assert!(pool.set_wal(Arc::clone(&wal)));

    mem.create(STRESS_REL).unwrap();
    for b in 0..STRESS_BLOCKS {
        let (block, p) = pool
            .new_page(id, STRESS_REL, |pg| {
                pg[..4].copy_from_slice(&b.to_le_bytes());
                pg[4] = STRESS_MARK;
            })
            .unwrap();
        assert_eq!(block, b);
        drop(p);
    }
    pool.capture_pending().unwrap();
    pool.flush_all().unwrap();
    pool.reset_stats();

    let mut bg = pool.spawn_bgwriter(Duration::from_millis(2)).unwrap();
    let stop = AtomicBool::new(false);
    let total_pins = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(stress_secs());

    std::thread::scope(|s| {
        // Pinners: random and sequential-hint pins of the stress relation,
        // verifying the stamp on every page; one in sixteen rewrites the
        // page payload (stamp preserved) to keep frames dirty.
        for th in 0..4u64 {
            let pool = Arc::clone(&pool);
            let (stop, total_pins) = (&stop, &total_pins);
            s.spawn(move || {
                let mut rng = seed ^ (th << 32);
                let mut pins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = next_rand(&mut rng);
                    let b = (r % STRESS_BLOCKS as u64) as u32;
                    let hint =
                        if r & 0x70 == 0 { AccessHint::Sequential } else { AccessHint::Random };
                    let p = pool.pin_with_hint(PageKey::new(id, STRESS_REL, b), hint).unwrap();
                    if r & 0xF == 0 {
                        let mut pg = p.write();
                        assert_eq!(u32::from_le_bytes(pg[..4].try_into().unwrap()), b);
                        assert_eq!(pg[4], STRESS_MARK, "foreign bytes behind a pinned frame");
                        pg[8] = pg[8].wrapping_add(1);
                    } else {
                        let pg = p.read();
                        assert_eq!(
                            u32::from_le_bytes(pg[..4].try_into().unwrap()),
                            b,
                            "pinned frame must hold its own block"
                        );
                        assert_eq!(pg[4], STRESS_MARK, "foreign bytes behind a pinned frame");
                    }
                    drop(p);
                    pins += 1;
                }
                total_pins.fetch_add(pins, Ordering::Relaxed);
            });
        }
        // Churn: create a second relation, dirty a few pages, discard it
        // from the pool, unlink it — over and over, so discard_rel races
        // the optimistic pinners and the capture chain.
        {
            let pool = Arc::clone(&pool);
            let mem = Arc::clone(&mem);
            let stop = &stop;
            s.spawn(move || {
                let mut rng = seed ^ 0xC0FF_EE00;
                while !stop.load(Ordering::Relaxed) {
                    mem.create(CHURN_REL).unwrap();
                    // 1–4 pages per round: the discard races land at
                    // seed-dependent points in the pinners' sequences.
                    for _ in 0..1 + next_rand(&mut rng) % 4 {
                        let (_, p) = pool
                            .new_page(id, CHURN_REL, |pg| {
                                pg[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                                pg[4] = CHURN_MARK;
                            })
                            .unwrap();
                        drop(p);
                    }
                    pool.discard_rel(id, CHURN_REL);
                    mem.unlink(CHURN_REL).unwrap();
                }
            });
        }
        // Capture/flush: drain the pending-image chain and force dirty
        // pages home continuously, alongside the bgwriter doing the same.
        {
            let pool = Arc::clone(&pool);
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    pool.capture_pending().unwrap();
                    pool.flush_dirty_batch();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }

        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    bg.stop();

    // Quiesced: every pin was released, and the stats ledger balances.
    assert_eq!(pool.pinned_frames(), 0, "all pins must return to zero");
    let stats = pool.stats();
    let pins = total_pins.load(Ordering::Relaxed);
    assert!(pins > 0, "stress must have executed pins");
    assert_eq!(stats.hits + stats.misses, pins, "every pin is exactly one hit or one miss");

    // The pool still round-trips after the storm: a full sweep sees every
    // stamp, and the WAL still accepts a capture.
    for b in 0..STRESS_BLOCKS {
        let p = pool.pin(PageKey::new(id, STRESS_REL, b)).unwrap();
        let pg = p.read();
        assert_eq!(u32::from_le_bytes(pg[..4].try_into().unwrap()), b);
        assert_eq!(pg[4], STRESS_MARK);
    }
    pool.capture_pending().unwrap();
    pool.flush_all().unwrap();
}
