//! `pool.writeback` wraps the pool's one device write, so it times every
//! write-back — the background writer's included. Alone in this binary:
//! the obs registry is process-global, and the equality below only holds
//! while no other pool writes back in the same process.

use pglo_buffer::BufferPool;
use pglo_sim::SimContext;
use pglo_smgr::{MemSmgr, SmgrSwitch};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn span_count() -> u64 {
    obs::snapshot_entries()
        .iter()
        .find(|e| e.name == "pool.writeback.count")
        .map_or(0, |e| e.value.as_u64())
}

#[test]
fn writeback_span_counts_bgwriter_traffic() {
    let switch = Arc::new(SmgrSwitch::new());
    let id = switch.register(Arc::new(MemSmgr::new(SimContext::default_1992())));
    switch.get(id).unwrap().create(1).unwrap();
    let pool = Arc::new(BufferPool::new(Arc::clone(&switch), 16));
    let spans_before = span_count();
    let writebacks_before = pool.stats().writebacks;
    let mut bg = pool.spawn_bgwriter(Duration::from_millis(1)).unwrap();
    for _ in 0..8 {
        let (_, p) = pool.new_page(id, 1, |_| {}).unwrap();
        drop(p);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.stats().bgwriter_pages < 8 {
        assert!(Instant::now() < deadline, "bgwriter never drained: {:?}", pool.stats());
        std::thread::sleep(Duration::from_millis(2));
    }
    bg.stop();
    let writebacks = pool.stats().writebacks - writebacks_before;
    assert!(writebacks >= 8, "every new page goes home once: {:?}", pool.stats());
    assert_eq!(span_count() - spans_before, writebacks, "one span per write-back");
}
