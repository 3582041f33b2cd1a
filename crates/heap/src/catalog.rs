//! The class catalog: names, OIDs, storage-manager assignment, and
//! arbitrary per-class properties (the query layer stores column schemas
//! here, Inversion its file classes).
//!
//! Classes are rows too: each class's [`ClassMeta`] is one binary row of
//! the heap at the reserved OID [`CLASS_HEAP`], on the environment's disk,
//! under the same MVCC and redo log as the data. The environment scans it
//! once when it opens, into the map [`Catalog::get`] serves. A mutation is
//! an insert, an update or a delete of one row in a transaction of its
//! own, and the map follows once that commits. OIDs come from the redo
//! log's counter ([`Wal::next_oid`]); large-object metadata is a row of a
//! relation of its own (`pglo_core::meta`).

use crate::{Heap, HeapError, Result, StorageEnv};
use parking_lot::{ranks, Mutex};
use pglo_pages::Tid;
use pglo_smgr::SmgrId;
use pglo_txn::{Txn, Visibility};
use pglo_wal::{Wal, CLASS_HEAP};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// What kind of physical structure a class is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// A heap of tuples.
    Heap,
    /// A B-tree index.
    BTree,
}

/// Metadata for one class.
#[derive(Debug, Clone)]
pub struct ClassMeta {
    /// The oid.
    pub oid: u64,
    /// The name.
    pub name: String,
    /// The kind.
    pub kind: ClassKind,
    /// Which storage manager the class lives on (slot in the switch).
    pub smgr: u16,
    /// Open property bag: column schemas, index key descriptors, etc.
    pub props: HashMap<String, String>,
}

impl ClassMeta {
    /// The storage-manager id as a typed value.
    pub fn smgr_id(&self) -> SmgrId {
        SmgrId(self.smgr)
    }

    /// The row: `oid u64, smgr u16, kind u8` (0 a heap, 1 a B-tree),
    /// little-endian, then the name and each property's key and value,
    /// sorted by key, each after its `u16` length. Refused when one tuple
    /// cannot hold it.
    fn encode(&self) -> Result<Vec<u8>> {
        let mut props: Vec<_> = self.props.iter().collect();
        props.sort();
        let mut row = self.oid.to_le_bytes().to_vec();
        row.extend_from_slice(&self.smgr.to_le_bytes());
        row.push(self.kind as u8);
        for text in std::iter::once(&self.name).chain(props.into_iter().flat_map(|(k, v)| [k, v])) {
            // A longer text makes the row longer than a tuple anyway.
            row.extend_from_slice(&(text.len() as u16).to_le_bytes());
            row.extend_from_slice(text.as_bytes());
        }
        let max = Heap::max_payload();
        if row.len() > max {
            let (name, len) = (&self.name, row.len());
            return Err(HeapError::Catalog(format!("class \"{name}\": {len}-byte row, {max} fit")));
        }
        Ok(row)
    }

    /// Decode a row [`Self::encode`] wrote; `None` if it is damaged.
    fn decode(row: &[u8]) -> Option<ClassMeta> {
        let (oid, rest) = row.split_first_chunk::<8>()?;
        let (smgr, rest) = rest.split_first_chunk::<2>()?;
        let (&kind, mut rest) = rest.split_first()?;
        let mut texts = Vec::new();
        while let Some((len, tail)) = rest.split_first_chunk::<2>() {
            let (text, tail) = tail.split_at_checked(u16::from_le_bytes(*len).into())?;
            texts.push(String::from_utf8(text.to_vec()).ok()?);
            rest = tail;
        }
        let (name, props) = texts.split_first()?;
        let (pairs, []) = props.as_chunks::<2>() else { return None };
        Some(ClassMeta {
            oid: u64::from_le_bytes(*oid),
            name: name.clone(),
            kind: match kind {
                0 => ClassKind::Heap,
                1 => ClassKind::BTree,
                _ => return None,
            },
            smgr: u16::from_le_bytes(*smgr),
            props: pairs.iter().map(|[k, v]| (k.clone(), v.clone())).collect(),
        })
        .filter(|_| rest.is_empty())
    }
}

/// The catalog. Readers take only the data lock (rank `heap.catalog`),
/// which no file I/O runs under; a mutation takes the writer lock (rank
/// `heap.catalog_writer`) first and holds it across its row's transaction,
/// so rows and map change in one order, and one that fails changes neither.
pub struct Catalog {
    /// The classes by name, each with the TID of its row.
    classes: Mutex<HashMap<String, (Tid, ClassMeta)>>,
    /// Serializes mutations.
    writer: Mutex<()>,
    wal: Arc<Wal>,
    /// The environment that owns the catalog, for the class heap.
    env: Weak<StorageEnv>,
}

impl Catalog {
    /// An empty catalog of `env`, taking OIDs from `wal`, which must
    /// replay before the first one; [`Self::load_rows`] fills it.
    pub(crate) fn new(env: Weak<StorageEnv>, wal: Arc<Wal>) -> Self {
        Self {
            classes: Mutex::with_rank(HashMap::new(), ranks::CATALOG),
            writer: Mutex::with_rank((), ranks::CATALOG_WRITER),
            wal,
            env,
        }
    }

    /// Create the class heap on `env`'s disk if it is missing, and read
    /// every row a fresh snapshot sees into the map. Runs once, after
    /// replay, before anything else can reach the catalog.
    pub(crate) fn load_rows(&self, env: &Arc<StorageEnv>) -> Result<()> {
        let heap = Heap::open_or_create(env, CLASS_HEAP, env.disk_id())?;
        let mut classes = HashMap::new();
        for row in heap.scan(Visibility::AsOf(env.txns().current_timestamp())) {
            let (tid, row) = row?;
            let meta = ClassMeta::decode(&row)
                .ok_or_else(|| HeapError::Catalog(format!("damaged class row at {tid}")))?;
            classes.insert(meta.name.clone(), (tid, meta));
        }
        *self.classes.lock() = classes;
        Ok(())
    }

    fn env(&self) -> Result<Arc<StorageEnv>> {
        self.env.upgrade().ok_or_else(|| HeapError::Catalog("the environment is gone".into()))
    }

    /// Run `write` on the class heap in a transaction of its own, and
    /// commit it.
    fn commit<T>(
        &self,
        env: &Arc<StorageEnv>,
        write: impl FnOnce(&Heap, &Txn) -> Result<T>,
    ) -> Result<T> {
        let txn = env.begin();
        let out = write(&Heap::open_oid(env, CLASS_HEAP, env.disk_id()), &txn)?;
        txn.try_commit().map_err(|e| HeapError::Catalog(format!("commit a class row: {e}")))?;
        Ok(out)
    }

    /// Allocate a fresh OID (also used for relations that have no name,
    /// like per-large-object chunk classes). The log's counter hands it
    /// out; the catalog does not change.
    pub fn alloc_oid(&self) -> Result<u64> {
        self.wal.next_oid().map_err(|e| HeapError::Catalog(format!("log the OID limit: {e}")))
    }

    /// Register a class and make its relation on `smgr`: the file first,
    /// then the row, so a crash between them leaves a file no class names,
    /// never a class that names no file. Errors if the name is taken or
    /// the row does not fit in one tuple.
    pub fn create_class(
        &self,
        name: &str,
        kind: ClassKind,
        smgr: SmgrId,
        props: HashMap<String, String>,
    ) -> Result<ClassMeta> {
        let env = self.env()?;
        let _writer = self.writer.lock();
        if self.get(name).is_some() {
            return Err(HeapError::Catalog(format!("class \"{name}\" already exists")));
        }
        let oid = self.alloc_oid()?;
        let meta = ClassMeta { oid, name: name.to_string(), kind, smgr: smgr.0, props };
        let row = meta.encode()?;
        env.switch().get(smgr)?.create(oid)?;
        env.durable_step("create a relation");
        let tid = self.commit(&env, |heap, txn| heap.insert(txn, &row))?;
        self.classes.lock().insert(name.to_string(), (tid, meta.clone()));
        Ok(meta)
    }

    /// Remove a class, returning its metadata: its row first, then its
    /// relation, so a crash between them leaves a file no class names.
    pub fn drop_class(&self, name: &str) -> Result<ClassMeta> {
        let env = self.env()?;
        let writer = self.writer.lock();
        let (tid, meta) = self.entry(name)?;
        self.commit(&env, |heap, txn| heap.delete(txn, tid))?;
        self.classes.lock().remove(name);
        drop(writer);
        Heap::open_oid(&env, meta.oid, meta.smgr_id()).drop_storage()?;
        Ok(meta)
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<ClassMeta> {
        self.classes.lock().get(name).map(|(_, meta)| meta.clone())
    }

    /// All class names, sorted.
    // LINT: allow(R14, the REPL's \d listing in examples/postquel_repl.rs)
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.classes.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove one property from a class. Returns whether it existed.
    pub fn remove_prop(&self, name: &str, key: &str) -> Result<bool> {
        self.update(name, |meta| meta.props.remove(key).is_some())
    }

    /// Set properties on a class. The whole batch is one row version, so
    /// a reader (and a crash) sees all of it or none of it.
    pub fn set_props(&self, name: &str, props: &[(&str, &str)]) -> Result<()> {
        self.update(name, |meta| {
            meta.props.extend(props.iter().map(|(k, v)| (k.to_string(), v.to_string())));
            true
        })?;
        Ok(())
    }

    /// Apply `edit` to a copy of class `name`'s metadata and, when it
    /// reports a change, replace the class's row with the edited one, then
    /// its map entry. Returns what `edit` returned.
    fn update(&self, name: &str, edit: impl FnOnce(&mut ClassMeta) -> bool) -> Result<bool> {
        let env = self.env()?;
        let _writer = self.writer.lock();
        let (tid, mut meta) = self.entry(name)?;
        if !edit(&mut meta) {
            return Ok(false);
        }
        let row = meta.encode()?;
        let tid = self.commit(&env, |heap, txn| heap.update(txn, tid, &row))?;
        self.classes.lock().insert(name.to_string(), (tid, meta));
        Ok(true)
    }

    fn entry(&self, name: &str) -> Result<(Tid, ClassMeta)> {
        let found = self.classes.lock().get(name).cloned();
        found.ok_or_else(|| HeapError::Catalog(format!("class \"{name}\" does not exist")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_wal::FIRST_OID;
    use std::path::Path;

    /// The class heap's rows, dead versions included.
    fn rows(env: &Arc<StorageEnv>) -> usize {
        Heap::open_oid(env, CLASS_HEAP, env.disk_id()).scan(Visibility::Raw).count()
    }

    fn temp_env() -> (tempfile::TempDir, Arc<StorageEnv>) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        (dir, env)
    }

    fn props(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn row_roundtrip() {
        let meta = ClassMeta {
            oid: 1234,
            name: "EMP".into(),
            kind: ClassKind::BTree,
            smgr: 2,
            props: props(&[("schema", "name:text"), ("", "\0|"), ("index:i", "")]),
        };
        let back = ClassMeta::decode(&meta.encode().unwrap()).unwrap();
        assert_eq!(
            format!("{:?}", (back.oid, &back.name, back.kind, back.smgr)),
            "(1234, \"EMP\", BTree, 2)"
        );
        assert_eq!(back.props, meta.props);
        // Damage: cut short, a trailing byte, a key without a value, an
        // unknown kind.
        let row = meta.encode().unwrap();
        assert!(ClassMeta::decode(&row[..row.len() - 1]).is_none());
        assert!(ClassMeta::decode(&[&row[..], &[0]].concat()).is_none());
        let lone = ClassMeta { props: HashMap::new(), ..meta.clone() }.encode().unwrap();
        assert!(ClassMeta::decode(&[&lone[..], &[1, 0, b'k']].concat()).is_none());
        let mut kind = row.clone();
        kind[10] = 7;
        assert!(ClassMeta::decode(&kind).is_none());
    }

    #[test]
    fn create_get_drop() {
        let (_dir, env) = temp_env();
        let cat = env.catalog();
        let meta = cat.create_class("EMP", ClassKind::Heap, env.disk_id(), HashMap::new()).unwrap();
        assert!(meta.oid >= FIRST_OID);
        assert!(env.switch().get(env.disk_id()).unwrap().exists(meta.oid), "its relation");
        assert_eq!(cat.get("EMP").unwrap().oid, meta.oid);
        assert!(cat.create_class("EMP", ClassKind::Heap, env.disk_id(), HashMap::new()).is_err());
        cat.drop_class("EMP").unwrap();
        assert!(cat.get("EMP").is_none());
        assert!(!env.switch().get(env.disk_id()).unwrap().exists(meta.oid), "its relation");
        assert!(cat.drop_class("EMP").is_err());
    }

    /// `alloc_oid` and `create_class` draw on one counter, the log's, and
    /// `alloc_oid` writes no class row.
    #[test]
    fn oids_unique() {
        let (_dir, env) = temp_env();
        let cat = env.catalog();
        let a = cat.alloc_oid().unwrap();
        let b = cat.alloc_oid().unwrap();
        assert_eq!(rows(&env), 0);
        let c = cat.create_class("X", ClassKind::BTree, SmgrId(1), HashMap::new()).unwrap().oid;
        assert!(a < b && b < c);
        assert_eq!(rows(&env), 1);
    }

    #[test]
    fn persists_and_reloads() {
        let dir = tempfile::tempdir().unwrap();
        let stray = {
            let env = StorageEnv::open(dir.path()).unwrap();
            let schema = props(&[("schema", "name=text")]);
            env.catalog().create_class("EMP", ClassKind::Heap, SmgrId(2), schema).unwrap();
            // Handed out and never named in the catalog.
            env.catalog().alloc_oid().unwrap()
        };
        let env = StorageEnv::open(dir.path()).unwrap();
        let meta = env.catalog().get("EMP").unwrap();
        assert_eq!(meta.smgr_id(), SmgrId(2));
        assert_eq!(meta.props.get("schema").unwrap(), "name=text");
        // The log's OID counter resumed past both, the one the catalog
        // never saw included.
        let next = env.catalog().alloc_oid().unwrap();
        assert!(next > meta.oid && next > stray);
    }

    /// A failed mutation changes neither the map nor the class heap, and
    /// a removal of a missing property writes no row.
    #[test]
    fn props_update() {
        let (_dir, env) = temp_env();
        let cat = env.catalog();
        cat.create_class("T", ClassKind::Heap, env.disk_id(), HashMap::new()).unwrap();
        cat.set_props("T", &[("rows", "42")]).unwrap();
        assert_eq!(cat.get("T").unwrap().props.get("rows").unwrap(), "42");
        assert!(cat.remove_prop("T", "rows").unwrap());
        let written = rows(&env);
        assert!(cat.set_props("missing", &[("a", "b")]).is_err());
        assert!(!cat.remove_prop("T", "rows").unwrap());
        assert_eq!(rows(&env), written, "a failed set_props or an idle remove_prop");
        assert!(!cat.get("T").unwrap().props.contains_key("rows"));
        cat.drop_class("T").unwrap();
        assert!(cat.get("T").is_none());
    }

    /// A class row too large for one tuple is refused with a catalog error,
    /// at create and at update, and leaves the map, the class heap and
    /// the relation directory as they were.
    #[test]
    fn row_too_large_for_a_tuple_is_refused() {
        let (dir, env) = temp_env();
        let cat = env.catalog();
        let files = |d: &Path| -> Vec<_> {
            let mut names: Vec<_> =
                std::fs::read_dir(d).unwrap().map(|e| e.unwrap().path()).collect();
            names.sort();
            names
        };
        let big = "x".repeat(Heap::max_payload());
        cat.create_class("T", ClassKind::Heap, env.disk_id(), props(&[("a", "b")])).unwrap();
        let (before, heap_files) = (rows(&env), files(&dir.path().join("heap")));
        let err = cat.create_class("U", ClassKind::Heap, env.disk_id(), props(&[("big", &big)]));
        assert!(matches!(err, Err(HeapError::Catalog(_))), "{err:?}");
        let err = cat.set_props("T", &[("c", "d"), ("big", &big)]);
        assert!(matches!(err, Err(HeapError::Catalog(_))), "{err:?}");
        assert!(cat.get("U").is_none());
        assert_eq!(cat.get("T").unwrap().props, props(&[("a", "b")]));
        assert_eq!(rows(&env), before, "the class heap");
        assert_eq!(files(&dir.path().join("heap")), heap_files, "a relation file was made");
        // One short of the limit still fits.
        let name_and_key = 2 + 1 + 2 + 3 + 2;
        let fits = "y".repeat(Heap::max_payload() - 11 - name_and_key);
        cat.create_class("V", ClassKind::Heap, env.disk_id(), props(&[("fit", &fits)])).unwrap();
    }

    #[test]
    fn set_props_batch_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let env = StorageEnv::open(dir.path()).unwrap();
            let cat = env.catalog();
            cat.create_class("T", ClassKind::Heap, env.disk_id(), HashMap::new()).unwrap();
            cat.set_props("T", &[("rows_xid", "7"), ("rows", "4096")]).unwrap();
        }
        let env = StorageEnv::open(dir.path()).unwrap();
        let props = env.catalog().get("T").unwrap().props;
        assert_eq!(props.get("rows_xid").unwrap(), "7");
        assert_eq!(props.get("rows").unwrap(), "4096");
    }

    /// Two writers each stamp `rows` and the xid vouching for it in one
    /// batch (writer `w` always writes the pair `(w, w)`); a reader's
    /// `get` between their writes must never see one writer's count with
    /// the other's xid.
    #[test]
    fn set_props_batch_is_atomic_to_readers() {
        let (_dir, env) = temp_env();
        let cat = env.catalog();
        cat.create_class("T", ClassKind::Heap, env.disk_id(), HashMap::new()).unwrap();
        cat.set_props("T", &[("rows_xid", "1"), ("rows", "1")]).unwrap();
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in ["1", "2"] {
                let (cat, done) = (&cat, &done);
                s.spawn(move || {
                    for _ in 0..200 {
                        cat.set_props("T", &[("rows_xid", w), ("rows", w)]).unwrap();
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            while done.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                let props = cat.get("T").unwrap().props;
                assert_eq!(props.get("rows"), props.get("rows_xid"));
            }
        });
    }

    #[test]
    fn class_names_sorted() {
        let (_dir, env) = temp_env();
        for n in ["zeta", "alpha", "mid"] {
            env.catalog().create_class(n, ClassKind::Heap, env.disk_id(), HashMap::new()).unwrap();
        }
        assert_eq!(env.catalog().class_names(), vec!["alpha", "mid", "zeta"]);
    }
}
