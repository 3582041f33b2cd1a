//! Model-based property test for the page table
//! ([`pglo_buffer::protocol::SlotArray`]): under random insert / remove
//! sequences the array agrees with a `HashMap` oracle — a remove always
//! finds its entry and leaves every other one reachable, the locked
//! lookup (a whole-chain probe) is exact, and the lock-free one (capped
//! at [`SLOT_PROBE_LIMIT`]) finds every live key too.
//!
//! The sizing mirrors a real pool: `FRAMES` frames and a slot array of
//! `2 * FRAMES` entries, so live load factor never exceeds ½. That bound
//! is what makes the capped probe complete here: with no tombstones,
//! linear-probe insertion places a key at most `live - 1 <
//! SLOT_PROBE_LIMIT` slots from its hash start, and removal only ever
//! moves an entry closer to it.

use pglo_buffer::protocol::{SlotArray, SLOT_PROBE_LIMIT};
use proptest::prelude::*;
use std::collections::HashMap;

/// Frame-index space; also the max number of live keys, half the array.
const FRAMES: usize = 32;
const SLOTS: usize = FRAMES * 2;

/// The key's probe start. Eight homes two slots apart, straddling the end
/// of the array, so chains run long, wrap around and run into one
/// another: the cases removal has to get right.
fn start_of(key: u64) -> usize {
    SLOTS - 6 + (key % 8) as usize * 2
}

#[derive(Debug, Clone)]
enum SlotOp {
    /// Map a fresh key (derived from this seed) to a free frame.
    Insert(u64),
    /// Unmap the i-th live key (mod live count).
    Remove(u16),
}

fn ops_strategy() -> impl Strategy<Value = Vec<SlotOp>> {
    let op = prop_oneof![
        5 => prop::num::u64::ANY.prop_map(SlotOp::Insert),
        3 => prop::num::u16::ANY.prop_map(SlotOp::Remove),
    ];
    prop::collection::vec(op, 1..100)
}

/// Probe for `key` the way the pool does — the pin fast path with
/// `limit = SLOT_PROBE_LIMIT`, the locked lookup with `limit = SLOTS`:
/// each slot's frame is accepted only if it names `key`.
fn lookup(slots: &SlotArray, frames: &[Option<u64>], key: u64, limit: usize) -> Option<usize> {
    slots.probe(start_of(key), limit, |idx| (frames[idx] == Some(key)).then_some(idx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_array_matches_oracle(ops in ops_strategy()) {
        let slots = SlotArray::new(SLOTS);
        // Oracle: key → frame index, plus the frames' own idea of their key
        // (what a slot's frame publishes in the pool).
        let mut oracle: HashMap<u64, usize> = HashMap::new();
        let mut frames: Vec<Option<u64>> = vec![None; FRAMES];
        let home = |frames: &[Option<u64>], idx: usize| {
            start_of(frames[idx].expect("only mapped frames are asked where they belong"))
        };

        for op in &ops {
            match op {
                SlotOp::Insert(seed) => {
                    // A fresh key on a free frame; skip when full or dup.
                    let key = seed | 1; // keep 0 and 2 out of the key space
                    let free = frames.iter().position(|f| f.is_none());
                    if oracle.contains_key(&key) {
                        continue;
                    }
                    let Some(idx) = free else { continue };
                    frames[idx] = Some(key);
                    oracle.insert(key, idx);
                    slots.insert(start_of(key), idx);
                }
                SlotOp::Remove(pick) => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let mut keys: Vec<u64> = oracle.keys().copied().collect();
                    keys.sort_unstable();
                    let key = keys[*pick as usize % keys.len()];
                    let idx = oracle.remove(&key).unwrap();
                    // The table is maintained under its lock, so a mapped
                    // entry must always be found; the frame keeps naming
                    // its key until the pool re-keys it, as in the pool.
                    prop_assert!(
                        slots.remove(start_of(key), idx, |i| home(&frames, i)),
                        "remove({key:#x} -> {idx}) missed its slot entry"
                    );
                    prop_assert!(
                        !slots.remove(start_of(key), idx, |i| home(&frames, i)),
                        "remove({key:#x} -> {idx}) found it twice"
                    );
                    frames[idx] = None;
                }
            }
            // After every op both lookups find every live key where the
            // oracle has it, and no key that was never inserted.
            for (&key, &idx) in &oracle {
                prop_assert_eq!(lookup(&slots, &frames, key, SLOTS), Some(idx));
                prop_assert_eq!(lookup(&slots, &frames, key, SLOT_PROBE_LIMIT), Some(idx));
            }
            prop_assert_eq!(lookup(&slots, &frames, 2, SLOTS), None, "key 2 is never inserted");
        }

        // Drain everything through remove; the table must empty cleanly.
        for (key, idx) in oracle.drain() {
            prop_assert!(slots.remove(start_of(key), idx, |i| home(&frames, i)));
            frames[idx] = None;
        }
        for probe_start in 0..SLOTS {
            prop_assert_eq!(slots.probe(probe_start, SLOTS, Some), None::<usize>);
        }
    }
}
