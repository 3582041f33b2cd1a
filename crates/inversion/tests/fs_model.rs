//! Model-based property test: Inversion agrees with an in-memory
//! reference file system under random operation sequences.

use pglo_core::{LoSpec, LoStore, OpenMode};
use pglo_heap::StorageEnv;
use pglo_inversion::{InvError, InversionFs};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum FsOp {
    Mkdir(u8),
    Create(u8),
    Write(u8, Vec<u8>),
    Append(u8, Vec<u8>),
    Unlink(u8),
    Rename(u8, u8),
}

fn ops_strategy() -> impl Strategy<Value = Vec<FsOp>> {
    let op = prop_oneof![
        (0u8..12).prop_map(FsOp::Mkdir),
        (0u8..12).prop_map(FsOp::Create),
        ((0u8..12), prop::collection::vec(prop::num::u8::ANY, 0..200))
            .prop_map(|(n, d)| FsOp::Write(n, d)),
        ((0u8..12), prop::collection::vec(prop::num::u8::ANY, 0..100))
            .prop_map(|(n, d)| FsOp::Append(n, d)),
        (0u8..12).prop_map(FsOp::Unlink),
        ((0u8..12), (0u8..12)).prop_map(|(a, b)| FsOp::Rename(a, b)),
    ];
    prop::collection::vec(op, 1..40)
}

/// Reference model: path → Node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Dir,
    File(Vec<u8>),
}

fn name(n: u8) -> String {
    // A small namespace with two levels: even ids live under /d, odd at /.
    if n.is_multiple_of(3) {
        format!("/d/n{n}")
    } else {
        format!("/n{n}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn inversion_matches_reference_model(ops in ops_strategy()) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = Arc::new(LoStore::new(Arc::clone(&env)).unwrap());
        let fs = InversionFs::open(&env, store, LoSpec::fchunk()).unwrap();
        let mut model: BTreeMap<String, Node> = BTreeMap::new();
        let txn = env.begin();
        fs.mkdir(&txn, "/d").unwrap();
        model.insert("/d".into(), Node::Dir);

        for op in &ops {
            match op {
                FsOp::Mkdir(n) => {
                    let p = name(*n);
                    let r = fs.mkdir(&txn, &p);
                    match model.entry(p.clone()) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(matches!(r, Err(InvError::Exists(_))), "{p}");
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            r.unwrap();
                            e.insert(Node::Dir);
                        }
                    }
                }
                FsOp::Create(n) => {
                    let p = name(*n);
                    let r = fs.create(&txn, &p);
                    match model.entry(p.clone()) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(matches!(r, Err(InvError::Exists(_))), "{p}");
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            r.unwrap();
                            e.insert(Node::File(Vec::new()));
                        }
                    }
                }
                FsOp::Write(n, data) => {
                    let p = name(*n);
                    match model.get_mut(&p) {
                        Some(Node::File(content)) => {
                            let mut f = fs.open_file(&txn, &p, OpenMode::ReadWrite).unwrap();
                            f.write_at(0, data).unwrap();
                            f.close().unwrap();
                            if content.len() < data.len() {
                                content.resize(data.len(), 0);
                            }
                            content[..data.len()].copy_from_slice(data);
                        }
                        Some(Node::Dir) => {
                            prop_assert!(fs.open_file(&txn, &p, OpenMode::ReadWrite).is_err());
                        }
                        None => {
                            prop_assert!(fs.open_file(&txn, &p, OpenMode::ReadWrite).is_err());
                        }
                    }
                }
                FsOp::Append(n, data) => {
                    let p = name(*n);
                    if let Some(Node::File(content)) = model.get_mut(&p) {
                        let mut f = fs.open_file(&txn, &p, OpenMode::ReadWrite).unwrap();
                        let at = content.len() as u64;
                        f.write_at(at, data).unwrap();
                        f.close().unwrap();
                        content.extend_from_slice(data);
                    }
                }
                FsOp::Unlink(n) => {
                    let p = name(*n);
                    let r = fs.unlink(&txn, &p);
                    match model.get(&p) {
                        Some(Node::File(_)) => {
                            r.unwrap();
                            model.remove(&p);
                        }
                        Some(Node::Dir) => {
                            prop_assert!(matches!(r, Err(InvError::IsADirectory(_))));
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                FsOp::Rename(a, b) => {
                    let (pa, pb) = (name(*a), name(*b));
                    if pa == pb {
                        continue;
                    }
                    let r = fs.rename(&txn, &pa, &pb);
                    // Renaming the directory /d's children into themselves
                    // etc.: model the same preconditions Inversion checks.
                    let src = model.get(&pa).cloned();
                    let dst_exists = model.contains_key(&pb);
                    // Never move a directory that has children in this test
                    // namespace (only files live under /d here).
                    match (src, dst_exists) {
                        (Some(node), false) => {
                            r.unwrap();
                            model.remove(&pa);
                            model.insert(pb, node);
                        }
                        (Some(_), true) => {
                            prop_assert!(matches!(r, Err(InvError::Exists(_))));
                        }
                        (None, _) => prop_assert!(r.is_err()),
                    }
                }
            }
        }

        // Final state: every model path resolves with matching kind and
        // contents; directory listings agree.
        for (path, node) in &model {
            match node {
                Node::Dir => {
                    let (_, is_dir) = fs.resolve(&txn, path).unwrap();
                    prop_assert!(is_dir, "{path} should be a directory");
                }
                Node::File(content) => {
                    let mut f = fs.open_file(&txn, path, OpenMode::ReadOnly).unwrap();
                    let got = f.read_to_vec().unwrap();
                    f.close().unwrap();
                    prop_assert_eq!(&got, content, "contents of {}", path);
                }
            }
        }
        // Root listing matches the model's top level.
        let mut expect_root: Vec<String> = model
            .keys()
            .filter(|p| p.rfind('/') == Some(0))
            .map(|p| p[1..].to_string())
            .collect();
        expect_root.sort();
        let got_root: Vec<String> = fs
            .readdir(&txn, "/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        prop_assert_eq!(got_root, expect_root);
        txn.commit();
    }
}
