//! Model-based property test for the page table
//! ([`pglo_buffer::protocol::SlotArray`]): under random insert / tomb /
//! rebuild sequences the array agrees with a `HashMap` oracle — the
//! locked lookup (`find`) is exact, a bounded probe never validates a
//! wrong frame, a remove always finds its entry, and after a tombstone
//! rebuild every live key is reachable again within the
//! [`SLOT_PROBE_LIMIT`] probe cap.
//!
//! The sizing mirrors a real pool: `FRAMES` frames and a slot array of
//! `2 * FRAMES` entries, so live load factor never exceeds ½. That bound
//! is what makes post-rebuild completeness provable: linear-probe
//! insertion places a key at most `live - 1 < SLOT_PROBE_LIMIT` slots
//! from its hash start once no tombstones pad the chains. *Before* a
//! rebuild, tombstones eat probe budget, so a lookup may fail the cap —
//! that is the pool's locked-fallback case, and the property only
//! requires soundness there, never completeness.

use pglo_buffer::protocol::{SlotArray, SLOT_PROBE_LIMIT};
use proptest::prelude::*;
use std::collections::HashMap;

/// Frame-index space; also the max number of live keys, half the array.
const FRAMES: usize = 32;
const SLOTS: usize = FRAMES * 2;

/// splitmix64 — the key's probe start, like the pool's page-key hash.
fn start_of(key: u64) -> usize {
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) as usize
}

#[derive(Debug, Clone)]
enum SlotOp {
    /// Map a fresh key (derived from this seed) to a free frame.
    Insert(u64),
    /// Unmap the i-th live key (mod live count).
    Remove(u16),
    /// The pool's tombstone rebuild: empty the array and remap every
    /// frame it held from the key the frame itself names.
    Rebuild,
}

fn ops_strategy() -> impl Strategy<Value = Vec<SlotOp>> {
    let op = prop_oneof![
        5 => prop::num::u64::ANY.prop_map(SlotOp::Insert),
        3 => prop::num::u16::ANY.prop_map(SlotOp::Remove),
        1 => Just(SlotOp::Rebuild),
    ];
    prop::collection::vec(op, 1..100)
}

/// Probe for `key` the way the pin fast path does: offer each occupied
/// slot's frame to a validator that accepts only a frame actually
/// holding `key`. Returns the frame index and asserts the probe budget.
fn lookup(
    slots: &SlotArray,
    frames: &[Option<u64>],
    key: u64,
) -> Result<Option<usize>, TestCaseError> {
    let mut visited = 0usize;
    let hit = slots.probe(start_of(key), |idx| {
        visited += 1;
        if frames.get(idx).copied().flatten() == Some(key) {
            Some(idx)
        } else {
            None
        }
    });
    prop_assert!(
        visited <= SLOT_PROBE_LIMIT,
        "probe offered {visited} frames, cap is {SLOT_PROBE_LIMIT}"
    );
    Ok(hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slot_mirror_matches_oracle(ops in ops_strategy()) {
        let slots = SlotArray::new(SLOTS);
        // Oracle: key → frame index, plus the frames' own idea of their key
        // (the revalidation source of truth, like FrameState in the pool).
        let mut oracle: HashMap<u64, usize> = HashMap::new();
        let mut frames: Vec<Option<u64>> = vec![None; FRAMES];

        for op in &ops {
            match op {
                SlotOp::Insert(seed) => {
                    // A fresh key on a free frame; skip when full or dup.
                    let key = seed | 1; // keep 0 out of the key space
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
                    frames[idx] = None;
                    // The table is maintained under its lock, so a mapped
                    // entry must always be found and tombed.
                    prop_assert!(
                        slots.remove(start_of(key), idx),
                        "remove({key:#x} -> {idx}) missed its slot entry"
                    );
                }
                SlotOp::Rebuild => {
                    slots.rebuild(|idx| start_of(frames[idx].expect("only mapped frames remap")));
                    // Post-rebuild: no tombstones, load ≤ ½ — every live
                    // key must be reachable inside the probe cap.
                    for (&key, &idx) in &oracle {
                        let hit = lookup(&slots, &frames, key)?;
                        prop_assert_eq!(
                            hit, Some(idx),
                            "rebuilt index lost live key {:#x}", key
                        );
                    }
                }
            }
            // After every op the locked lookup is exact for every live
            // key, tombstones or not — the array is the only table.
            for (&key, &idx) in &oracle {
                let found = slots.find(start_of(key), |i| frames[i] == Some(key));
                prop_assert_eq!(found, Some(idx), "find lost live key {:#x}", key);
            }
            prop_assert_eq!(slots.find(start_of(2), |i| frames[i] == Some(2)), None);
            // And the bounded probe is sound: it never validates a frame
            // the oracle disagrees with, and a miss is only ever a
            // fallback (never a wrong hit). Sample the live keys and one
            // dead key.
            for (&key, &idx) in oracle.iter().take(4) {
                if let Some(hit) = lookup(&slots, &frames, key)? {
                    prop_assert_eq!(hit, idx);
                }
            }
            prop_assert_eq!(lookup(&slots, &frames, 2)?, None, "key 2 is never inserted");
        }

        // Drain everything through remove; the table must empty cleanly.
        let keys: Vec<u64> = oracle.keys().copied().collect();
        for key in keys {
            let idx = oracle.remove(&key).unwrap();
            frames[idx] = None;
            prop_assert!(slots.remove(start_of(key), idx));
        }
        slots.rebuild(|idx| unreachable!("frame {idx} outlived its remove"));
        for probe_start in 0..SLOTS {
            prop_assert_eq!(slots.probe(probe_start, Some), None::<usize>);
        }
    }
}
