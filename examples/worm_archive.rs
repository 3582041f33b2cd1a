//! Archiving large objects to the WORM optical jukebox (§7, §9.3).
//!
//! Stores a video-like object on the WORM storage manager, burns it to the
//! platter, and shows what Figure 3 is made of: sequential reads stream at
//! device speed, random reads are catastrophic on the raw jukebox but
//! absorbed by the magnetic-disk block cache, and burned blocks are
//! physically immutable.
//!
//! ```sh
//! cargo run --example worm_archive
//! ```

use pglo::prelude::*;
use pglo::smgr::StorageManager;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = tempfile::tempdir()?;
    let env = StorageEnv::open(dir.path())?;
    let store = LoStore::new(Arc::clone(&env)).unwrap();
    let sim = env.sim().clone();

    println!("== write a 4 MB object onto the WORM manager ==");
    let txn = env.begin();
    let spec = LoSpec::fchunk().with_codec(CodecKind::Lz77).on_smgr(env.worm_id());
    let id = store.create(&txn, &spec)?;
    let gen = pglo::compress::synth::FrameGenerator::new(4096, 0.8, 11);
    {
        let mut h = store.open(&txn, id, OpenMode::ReadWrite)?;
        for i in 0..1024u64 {
            h.write(&gen.frame(i))?;
        }
        h.close()?;
    }
    env.pool().flush_all()?;
    println!("staged {} frames; burning to the platter...", 1024);
    env.worm_smgr().sync_all()?;
    txn.commit();
    println!("burned. storage: {:?}\n", store.storage_breakdown(id)?);

    println!("== burned blocks are write-once at the device level ==");
    let probe = pglo::pages::alloc_page();
    match env.worm_smgr().write(store.meta(id)?.data_rel, 0, &probe) {
        Err(e) => println!("overwrite attempt correctly refused: {e}\n"),
        Ok(()) => unreachable!("WORM must refuse overwrites"),
    }

    println!("== Figure 3's shape, in miniature ==");
    // Evict everything from the buffer pool and the WORM block cache so the
    // measurements exercise the device, not warm memory.
    let meta = store.meta(id)?;
    let drop_pool = |env: &StorageEnv| {
        env.pool().discard_rel(env.worm_id(), meta.data_rel);
        env.pool().discard_rel(env.worm_id(), meta.idx_rel);
    };
    drop_pool(&env);
    env.worm_smgr().drop_cache();
    let t2 = env.begin();
    let mut h = store.open(&t2, id, OpenMode::ReadOnly)?;
    let mut buf = vec![0u8; 4096];

    // Sequential scan: one long stream off the platter.
    sim.reset();
    for i in 0..256u64 {
        h.read_at(i * 4096, &mut buf)?;
    }
    let sequential = sim.now_secs();

    // Random cold reads: every one pays jukebox positioning.
    drop_pool(&env);
    env.worm_smgr().drop_cache();
    sim.reset();
    let mut x = 123456789u64;
    let mut offsets = Vec::new();
    for _ in 0..64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        offsets.push((x >> 33) % 1024);
    }
    for &o in &offsets {
        h.read_at(o * 4096, &mut buf)?;
    }
    let random_cold = sim.now_secs();

    // The same random reads again: the magnetic-disk cache absorbs them
    // (buffer pool dropped again so the hits land on the block cache).
    drop_pool(&env);
    sim.reset();
    for &o in &offsets {
        h.read_at(o * 4096, &mut buf)?;
    }
    let random_warm = sim.now_secs();
    h.close()?;
    t2.commit();

    println!("sequential 1 MB read : {sequential:>9.3} simulated s");
    println!("random cold 256 KB   : {random_cold:>9.3} simulated s  (raw jukebox seeks)");
    println!("random warm 256 KB   : {random_warm:>9.3} simulated s  (disk cache hits)");
    let (hits, misses) = env.worm_smgr().cache_hit_stats();
    println!("block cache: {hits} hits / {misses} misses");
    println!();
    println!(
        "the cache makes repeated random access {:.0}x faster — the effect that",
        random_cold / random_warm.max(1e-9)
    );
    println!("makes f-chunk \"dramatically superior\" to a raw-device reader in Figure 3.");

    Ok(())
}
