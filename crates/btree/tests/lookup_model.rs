//! `BTree::lookup` searches pages in place; this drives it against a model
//! and against the route it used to take (a scan filtered by equality)
//! over the key shapes the workspace stores: 8-byte sequence numbers,
//! Inversion's `u64 + name` keys where one key is a prefix of another,
//! duplicate runs long enough to cross leaves, and deletes that empty
//! whole leaves in the middle of a run.

use pglo_btree::keys::{u64_bytes_key, u64_key};
use pglo_btree::{BTree, ScanStart};
use pglo_heap::StorageEnv;
use pglo_pages::Tid;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Longest duplicate run: with the long names below a leaf holds about a
/// dozen entries, so a run of twenty spans two or three.
const MAX_DUPS: usize = 20;

/// Every key the test uses. `u64_bytes_key(p, "")` is `u64_key(p)`, and
/// each name is a prefix of the next, so prefixes of stored keys are
/// themselves stored keys.
fn universe() -> Vec<Vec<u8>> {
    let name = "n".repeat(700);
    let mut keys: Vec<Vec<u8>> = (3..24).map(|n| u64_key(n).to_vec()).collect();
    for parent in 0..3 {
        for len in [0, 1, 2, 300, 301, 700] {
            keys.push(u64_bytes_key(parent, &name.as_bytes()[..len]));
        }
    }
    keys
}

/// What `lookup` did before it searched in place.
fn lookup_by_scan(tree: &BTree, key: &[u8]) -> Vec<Tid> {
    let mut scan = tree.scan(ScanStart::AtOrAfter(key.to_vec())).unwrap();
    let mut out = Vec::new();
    while let Some((k, tid)) = scan.next_entry().unwrap() {
        if k != key {
            break;
        }
        out.push(tid);
    }
    out
}

fn check(
    tree: &BTree,
    model: &BTreeSet<(Vec<u8>, Tid)>,
    keys: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    for key in keys {
        let want: Vec<Tid> = model.iter().filter(|(k, _)| k == key).map(|(_, t)| *t).collect();
        let got = tree.lookup(key).unwrap();
        prop_assert_eq!(&got, &want, "lookup vs model, key of {} bytes", key.len());
        prop_assert_eq!(&got, &lookup_by_scan(tree, key), "lookup vs scan route");
    }
    Ok(())
}

proptest! {
    /// Ops are `(key index, action)`: 0-5 insert a duplicate, 6-7 delete
    /// one entry of the key, 8 deletes the key's whole run.
    #[test]
    fn lookup_matches_model_and_scan_route(
        ops in prop::collection::vec((0usize..39, 0u8..9), 1..500)
    ) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
        let keys = universe();
        let mut model: BTreeSet<(Vec<u8>, Tid)> = BTreeSet::new();
        for (i, (k, action)) in ops.iter().enumerate() {
            let key = &keys[*k];
            let run: Vec<Tid> =
                model.iter().filter(|(mk, _)| mk == key).map(|(_, t)| *t).collect();
            match action {
                0..=5 if run.len() < MAX_DUPS => {
                    // Scrambled so new TIDs land inside the run, not only
                    // at its end (odd multiplier: distinct per `i`).
                    let tid = Tid::new((i as u32).wrapping_mul(2_654_435_761), 0);
                    tree.insert(key, tid).unwrap();
                    model.insert((key.clone(), tid));
                }
                6..=7 if !run.is_empty() => {
                    let tid = run[i % run.len()];
                    prop_assert!(tree.delete(key, tid).unwrap());
                    model.remove(&(key.clone(), tid));
                }
                8 => {
                    for tid in run {
                        prop_assert!(tree.delete(key, tid).unwrap());
                        model.remove(&(key.clone(), tid));
                    }
                }
                _ => {}
            }
            if i % 64 == 63 {
                check(&tree, &model, &keys)?;
            }
        }
        check(&tree, &model, &keys)?;
    }
}

/// The same walk at full size, deterministic: every key at its longest
/// run, then whole runs (and with them whole leaves) deleted from the
/// middle, so a run's continuation sits beyond emptied leaves.
#[test]
fn runs_cross_leaves_and_skip_emptied_ones() {
    let dir = tempfile::tempdir().unwrap();
    let env = StorageEnv::open(dir.path()).unwrap();
    let tree = BTree::create_anonymous(&env, env.disk_id()).unwrap();
    let keys = universe();
    let mut model: BTreeSet<(Vec<u8>, Tid)> = BTreeSet::new();
    for round in 0..MAX_DUPS as u32 {
        for (k, key) in keys.iter().enumerate() {
            let tid = Tid::new(round * 100 + k as u32, (k % 3) as u16);
            tree.insert(key, tid).unwrap();
            model.insert((key.clone(), tid));
        }
    }
    assert!(tree.nblocks().unwrap() > 15, "long keys must spread the runs over many leaves");
    check(&tree, &model, &keys).unwrap();
    // Empty the runs of every other key, and the middle of the others.
    for (key, tid) in model.clone() {
        let k = keys.iter().position(|x| *x == key).unwrap();
        if k % 2 == 0 || (500..1500).contains(&tid.block) {
            assert!(tree.delete(&key, tid).unwrap());
            model.remove(&(key, tid));
        }
    }
    check(&tree, &model, &keys).unwrap();
}
