//! B-tree behaviour and property tests.

use crate::keys::{u64_bytes_key, u64_key, u64_pair_key, u64_prefix};
use crate::{BTree, ScanStart};
use pglo_heap::{AccessHint, Heap, HeapError, StorageEnv};
use pglo_pages::Tid;
use pglo_txn::Visibility;
use proptest::prelude::*;
use std::sync::Arc;

fn env() -> (tempfile::TempDir, Arc<StorageEnv>) {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    (dir, env)
}

fn tid(n: u64) -> Tid {
    Tid::new((n / 100) as u32, (n % 100) as u16)
}

#[test]
fn empty_tree_lookups() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    assert!(tree.lookup(b"anything").unwrap().is_empty());
    let mut scan = tree.scan(ScanStart::First).unwrap();
    assert!(scan.next_entry().unwrap().is_none());
}

#[test]
fn insert_lookup_small() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for i in 0..100u64 {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    for i in 0..100u64 {
        assert_eq!(tree.lookup(&u64_key(i)).unwrap(), vec![tid(i)], "key {i}");
    }
    assert!(tree.lookup(&u64_key(100)).unwrap().is_empty());
}

#[test]
fn splits_preserve_order_large() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    // Enough entries to force multiple leaf splits and at least one root
    // split (each leaf holds ~500 16-byte-key entries).
    let n: u64 = 5000;
    // Insert in shuffled order.
    let mut order: Vec<u64> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    for &i in &order {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    // Full scan returns every key in order.
    let mut scan = tree.scan(ScanStart::First).unwrap();
    let mut prev: Option<Vec<u8>> = None;
    let mut count = 0u64;
    while let Some((k, t)) = scan.next_entry().unwrap() {
        if let Some(p) = &prev {
            assert!(p < &k, "scan out of order at entry {count}");
        }
        assert_eq!(u64_prefix(&k).unwrap(), count);
        assert_eq!(t, tid(count));
        prev = Some(k);
        count += 1;
    }
    assert_eq!(count, n);
    assert!(tree.nblocks().unwrap() > 10, "tree must have split");
    // Point lookups after splits.
    for i in [0, 1, n / 2, n - 2, n - 1] {
        assert_eq!(tree.lookup(&u64_key(i)).unwrap(), vec![tid(i)]);
    }
}

#[test]
fn duplicates_all_returned_in_tid_order() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    let key = u64_key(7);
    let tids: Vec<Tid> = (0..50).map(|i| Tid::new(i as u32, 0)).collect();
    // Insert in reverse to exercise ordered insertion.
    for t in tids.iter().rev() {
        tree.insert(&key, *t).unwrap();
    }
    tree.insert(&u64_key(6), Tid::new(999, 0)).unwrap();
    tree.insert(&u64_key(8), Tid::new(998, 0)).unwrap();
    assert_eq!(tree.lookup(&key).unwrap(), tids);
}

/// `visible` tries a key's versions highest TID first — newest first on an
/// appending heap — skips the ones the snapshot cannot see, and follows
/// the run of duplicates across leaves.
#[test]
fn visible_walks_newest_first_and_skips_the_invisible() {
    let (_d, env) = env();
    let heap = Heap::create_anonymous(&env, env.disk_id()).unwrap();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    let key = u64_key(7);
    // More versions of one row than a leaf holds entries.
    let (mut tids, mut stamps) = (Vec::new(), Vec::new());
    for gen in 0..700u32 {
        let txn = env.begin();
        let tid = match tids.last() {
            Some(&old) => heap.update(&txn, old, &gen.to_le_bytes()),
            None => heap.insert(&txn, &gen.to_le_bytes()),
        };
        tids.push(tid.unwrap());
        tree.insert(&key, tids[gen as usize]).unwrap();
        stamps.push(txn.commit());
    }
    // Neighbouring keys' rows must not leak into the walk.
    let txn = env.begin();
    for neighbour in [6, 8] {
        let tid = heap.insert(&txn, b"neighbour").unwrap();
        tree.insert(&u64_key(neighbour), tid).unwrap();
    }
    txn.commit();
    assert!(tids.windows(2).all(|w| w[0] < w[1]), "an appending heap hands out rising TIDs");
    assert!(tree.nblocks().unwrap() >= 4, "the run of duplicates must span two leaves");

    let walk = |vis: &Visibility| -> Vec<(Tid, Vec<u8>)> {
        tree.visible(&heap, &key, vis, AccessHint::Random).unwrap().map(|v| v.unwrap()).collect()
    };
    let newest_first: Vec<Tid> = tids.iter().rev().copied().collect();
    let all = walk(&Visibility::Raw);
    assert_eq!(all.iter().map(|(tid, _)| *tid).collect::<Vec<_>>(), newest_first);
    assert_eq!(all[0].1, 699u32.to_le_bytes());
    // One visible version per snapshot: the walk passes every newer one.
    for gen in [0usize, 1, 350, 698, 699] {
        let seen = walk(&Visibility::AsOf(stamps[gen]));
        assert_eq!(seen, vec![(tids[gen], (gen as u32).to_le_bytes().to_vec())], "as of {gen}");
    }
    // An uncommitted version is the writer's and nobody else's.
    let reader = env.begin();
    let writer = env.begin();
    let pending = heap.update(&writer, tids[699], b"pending").unwrap();
    tree.insert(&key, pending).unwrap();
    assert_eq!(walk(&Visibility::for_txn(&writer)), vec![(pending, b"pending".to_vec())]);
    let committed = vec![(tids[699], 699u32.to_le_bytes().to_vec())];
    assert_eq!(walk(&Visibility::for_txn(&reader)), committed);
    writer.abort();
    assert_eq!(walk(&Visibility::for_txn(&reader)), committed);
    reader.commit();
}

/// `visible_range` is `visible` key by key: over every range of keys that
/// are prefixes of one another and long enough that their versions span
/// leaves, it yields each key with a visible version once, in key order,
/// with the version `visible` finds first.
#[test]
fn visible_range_is_visible_key_by_key() {
    let (_d, env) = env();
    let heap = Heap::create_anonymous(&env, env.disk_id()).unwrap();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    let name = "n".repeat(1000);
    let mut keys: Vec<Vec<u8>> = (0..4)
        .flat_map(|p| {
            [0, 1, 2, 500, 501, 1000].map(|len| u64_bytes_key(p, &name.as_bytes()[..len]))
        })
        .collect();
    keys.sort();
    // Generation 0 writes every key, generation `g` rewrites every
    // (g+1)-th, so keys carry one to four versions.
    let (mut live, mut stamps) = (vec![None; keys.len()], Vec::new());
    for gen in 0..4u8 {
        let txn = env.begin();
        for (k, key) in keys.iter().enumerate().filter(|(k, _)| k % (gen as usize + 1) == 0) {
            let payload = [gen, k as u8];
            let tid = match live[k] {
                Some(old) => heap.update(&txn, old, &payload),
                None => heap.insert(&txn, &payload),
            };
            live[k] = Some(tid.unwrap());
            tree.insert(key, live[k].unwrap()).unwrap();
        }
        stamps.push(txn.commit());
    }
    assert!(tree.nblocks().unwrap() > 3, "the versions must span leaves");
    let snapshots = [Visibility::Raw, Visibility::AsOf(stamps[0] - 1)]
        .into_iter()
        .chain(stamps.iter().map(|&ts| Visibility::AsOf(ts)));
    for vis in snapshots {
        for lo in 0..keys.len() {
            for hi in lo..keys.len() {
                let mut got = Vec::new();
                tree.visible_range(
                    &heap,
                    &keys[lo],
                    &keys[hi],
                    &vis,
                    AccessHint::Random,
                    |k, t, p| {
                        got.push((k.to_vec(), t, p.to_vec()));
                        Ok::<_, HeapError>(())
                    },
                )
                .unwrap();
                let want: Vec<_> = keys[lo..=hi]
                    .iter()
                    .filter_map(|k| {
                        let mut versions =
                            tree.visible(&heap, k, &vis, AccessHint::Random).unwrap();
                        versions.next().map(|v| v.map(|(t, p)| (k.clone(), t, p)).unwrap())
                    })
                    .collect();
                assert_eq!(got, want, "keys {lo}..={hi} under {vis:?}");
            }
        }
    }
}

#[test]
fn delete_exact_entry() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for i in 0..20u64 {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    assert!(tree.delete(&u64_key(10), tid(10)).unwrap());
    assert!(!tree.delete(&u64_key(10), tid(10)).unwrap(), "second delete is a no-op");
    assert!(!tree.delete(&u64_key(10), tid(11)).unwrap(), "wrong tid does not match");
    assert!(tree.lookup(&u64_key(10)).unwrap().is_empty());
    assert_eq!(tree.lookup(&u64_key(9)).unwrap(), vec![tid(9)]);
    assert_eq!(tree.lookup(&u64_key(11)).unwrap(), vec![tid(11)]);
}

#[test]
fn delete_one_of_duplicates() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    let key = u64_key(1);
    for i in 0..5 {
        tree.insert(&key, Tid::new(i, 0)).unwrap();
    }
    assert!(tree.delete(&key, Tid::new(2, 0)).unwrap());
    let left = tree.lookup(&key).unwrap();
    assert_eq!(left, vec![Tid::new(0, 0), Tid::new(1, 0), Tid::new(3, 0), Tid::new(4, 0)]);
}

#[test]
fn scan_at_or_after_positions_correctly() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for i in (0..100u64).map(|i| i * 10) {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    // Exact hit.
    let mut scan = tree.scan(ScanStart::AtOrAfter(u64_key(500).to_vec())).unwrap();
    assert_eq!(u64_prefix(&scan.next_entry().unwrap().unwrap().0).unwrap(), 500);
    // Between keys: next larger.
    let mut scan = tree.scan(ScanStart::AtOrAfter(u64_key(505).to_vec())).unwrap();
    assert_eq!(u64_prefix(&scan.next_entry().unwrap().unwrap().0).unwrap(), 510);
    // Past the end.
    let mut scan = tree.scan(ScanStart::AtOrAfter(u64_key(10_000).to_vec())).unwrap();
    assert!(scan.next_entry().unwrap().is_none());
}

#[test]
fn composite_keys_scan_in_component_order() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for lo in 0..4u64 {
        for locn in 0..50u64 {
            tree.insert(&u64_pair_key(lo, locn * 1000), tid(lo * 100 + locn)).unwrap();
        }
    }
    // Scan within one object only.
    let mut scan = tree.scan(ScanStart::AtOrAfter(u64_pair_key(2, 0).to_vec())).unwrap();
    let mut n = 0;
    while let Some((k, _)) = scan.next_entry().unwrap() {
        if u64_prefix(&k).unwrap() != 2 {
            break;
        }
        n += 1;
    }
    assert_eq!(n, 50);
}

#[test]
fn size_accounting_for_figure1() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    // 6400 chunk entries (the 51.2 MB object) should index in a few dozen
    // pages — the paper reports 270 336 bytes (33 pages).
    for i in 0..6400u64 {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    let bytes = tree.size_bytes().unwrap();
    assert!(
        (100_000..600_000).contains(&bytes),
        "index size {bytes} should be in the paper's ballpark"
    );
}

#[test]
fn descent_charges_cpu() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for i in 0..100u64 {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    env.pool().flush_all().unwrap();
    let before = env.sim().now_ns();
    tree.lookup(&u64_key(50)).unwrap();
    assert!(env.sim().now_ns() > before, "index traversal must cost simulated time");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tree agrees with a sorted reference model under random inserts
    /// and deletes.
    #[test]
    fn matches_reference_model(ops in prop::collection::vec(
        (prop::num::u16::ANY, prop::bool::weighted(0.25)), 1..400)
    ) {
        let (_d, env) = env();
        let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
        let mut model: std::collections::BTreeSet<(Vec<u8>, Tid)> = Default::default();
        for (i, (k, is_delete)) in ops.iter().enumerate() {
            let key = u64_key(*k as u64 % 64).to_vec(); // small key space → duplicates
            let t = Tid::new(i as u32, 0);
            if *is_delete {
                // Delete some existing entry with this key, if any.
                let existing = model.iter().find(|(mk, _)| mk == &key).cloned();
                if let Some((mk, mt)) = existing {
                    prop_assert!(tree.delete(&mk, mt).unwrap());
                    model.remove(&(mk, mt));
                } else {
                    prop_assert!(!tree.delete(&key, t).unwrap());
                }
            } else {
                tree.insert(&key, t).unwrap();
                model.insert((key, t));
            }
        }
        // Full scan equals the model.
        let mut scan = tree.scan(ScanStart::First).unwrap();
        let mut got = Vec::new();
        while let Some(e) = scan.next_entry().unwrap() {
            got.push(e);
        }
        let expect: Vec<(Vec<u8>, Tid)> = model.into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    /// Lookup returns exactly the model's TIDs for each key.
    #[test]
    fn lookup_matches_model(keys in prop::collection::vec(0u64..32, 1..300)) {
        let (_d, env) = env();
        let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
        let mut model: std::collections::HashMap<u64, Vec<Tid>> = Default::default();
        for (i, k) in keys.iter().enumerate() {
            let t = Tid::new(i as u32, (i % 7) as u16);
            tree.insert(&u64_key(*k), t).unwrap();
            model.entry(*k).or_default().push(t);
        }
        for (k, mut tids) in model {
            tids.sort();
            prop_assert_eq!(tree.lookup(&u64_key(k)).unwrap(), tids);
        }
    }
}

#[test]
fn max_length_keys_split_correctly() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    // Keys at the MAX_KEY_LEN limit: only ~7 fit per page, forcing deep
    // splits quickly.
    let make_key = |i: u64| -> Vec<u8> {
        let mut k = vec![0u8; crate::MAX_KEY_LEN];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    };
    for i in 0..200u64 {
        tree.insert(&make_key(i), tid(i)).unwrap();
    }
    for i in [0, 99, 199] {
        assert_eq!(tree.lookup(&make_key(i)).unwrap(), vec![tid(i)]);
    }
    let mut scan = tree.scan(ScanStart::First).unwrap();
    let mut n = 0;
    while scan.next_entry().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 200);
    assert!(tree.nblocks().unwrap() > 20, "max-size keys force many pages");
}

#[test]
fn mass_deletion_leaves_scannable_tree() {
    let (_d, env) = env();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    for i in 0..2000u64 {
        tree.insert(&u64_key(i), tid(i)).unwrap();
    }
    // Delete everything except every 100th entry: most leaves end up empty
    // (lazy deletion keeps the pages), scans must skip them seamlessly.
    for i in 0..2000u64 {
        if i % 100 != 0 {
            assert!(tree.delete(&u64_key(i), tid(i)).unwrap());
        }
    }
    let mut scan = tree.scan(ScanStart::First).unwrap();
    let mut got = Vec::new();
    while let Some((k, _)) = scan.next_entry().unwrap() {
        got.push(u64_prefix(&k).unwrap());
    }
    assert_eq!(got, (0..2000).step_by(100).collect::<Vec<u64>>());
    // Reinserting into the hollowed tree reuses the structure.
    for i in 0..2000u64 {
        if i % 100 != 0 {
            tree.insert(&u64_key(i), tid(i)).unwrap();
        }
    }
    assert_eq!(tree.lookup(&u64_key(1)).unwrap(), vec![tid(1)]);
}
