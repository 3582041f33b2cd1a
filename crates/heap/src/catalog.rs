//! The class catalog: names, OIDs, storage-manager assignment, and
//! arbitrary per-class properties (the query layer stores column schemas
//! here, Inversion its file classes).
//!
//! Persisted as JSON in the database directory. The catalog is *metadata*,
//! not benchmarked data — see DESIGN.md's dependency policy for why JSON.
//! OIDs are not: they come from the redo log's counter ([`Wal::next_oid`]).
//! Nor is large-object metadata: each object's is a row of a logged heap
//! relation (`pglo_core::meta`), and a catalog that still names an
//! object's class (`$lo_<id>`, an earlier format) is refused.

use crate::json::{self, Value};
use crate::{HeapError, Result};
use parking_lot::{ranks, Mutex};
use pglo_smgr::SmgrId;
use pglo_wal::Wal;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
    /// Open property bag: column schemas, index key descriptors, LO
    /// metadata, owner, etc.
    pub props: HashMap<String, String>,
}

impl ClassMeta {
    /// The storage-manager id as a typed value.
    pub fn smgr_id(&self) -> SmgrId {
        SmgrId(self.smgr)
    }
}

/// The classes by name: what `catalog.json` holds, as one JSON object.
pub(crate) type CatalogData = HashMap<String, ClassMeta>;

// JSON mapping. Class entries keep the serde_json derive layout the seed
// used (enum variants as strings, `props` defaulting to empty).
fn to_json(data: &CatalogData) -> Value {
    let mut names: Vec<&String> = data.keys().collect();
    names.sort();
    Value::Obj(names.into_iter().map(|n| (n.clone(), data[n].to_json())).collect())
}

fn from_json(v: &Value) -> std::result::Result<CatalogData, String> {
    // A class's entry is an object; the earlier format's counter a number.
    if let Some(Value::Num(_)) = v.get("next_oid") {
        return Err("an earlier format's OID counter: no import path".into());
    }
    let Value::Obj(members) = v else { return Err("not an object".into()) };
    if members.iter().any(|(name, _)| name.starts_with("$lo_")) {
        return Err("an earlier format's large-object classes ($lo_<id>): no import path".into());
    }
    members.iter().map(|(name, c)| ClassMeta::from_json(c).map(|m| (name.clone(), m))).collect()
}

impl ClassMeta {
    fn to_json(&self) -> Value {
        let mut prop_keys: Vec<&String> = self.props.keys().collect();
        prop_keys.sort();
        Value::Obj(vec![
            ("oid".into(), Value::Num(self.oid as f64)),
            ("name".into(), Value::Str(self.name.clone())),
            (
                "kind".into(),
                Value::Str(
                    match self.kind {
                        ClassKind::Heap => "Heap",
                        ClassKind::BTree => "BTree",
                    }
                    .into(),
                ),
            ),
            ("smgr".into(), Value::Num(self.smgr as f64)),
            (
                "props".into(),
                Value::Obj(
                    prop_keys
                        .into_iter()
                        .map(|k| (k.clone(), Value::Str(self.props[k].clone())))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> std::result::Result<Self, String> {
        Ok(Self {
            oid: v.get("oid").and_then(Value::as_u64).ok_or("missing oid")?,
            name: v.get("name").and_then(Value::as_str).ok_or("missing name")?.to_string(),
            kind: match v.get("kind").and_then(Value::as_str) {
                Some("Heap") => ClassKind::Heap,
                Some("BTree") => ClassKind::BTree,
                other => return Err(format!("bad kind {other:?}")),
            },
            smgr: v
                .get("smgr")
                .and_then(Value::as_u64)
                .and_then(|n| u16::try_from(n).ok())
                .ok_or("missing smgr")?,
            props: match v.get("props") {
                Some(p) => p.as_string_map().ok_or("props is not a string map")?,
                None => HashMap::new(),
            },
        })
    }
}

/// The catalog. Thread-safe; persisted to `<dir>/catalog.json`.
///
/// Every mutator goes through the private `mutate`, which numbers its
/// snapshot and never writes the file while holding the data lock: it
/// renders the JSON snapshot in memory, releases the data lock, and then
/// writes under the `persist` lock (rank `heap.catalog_persist`), which
/// serializes writers and drops snapshots that lost the race to a newer
/// one.
pub struct Catalog {
    /// The classes, and the number of the last mutation (not persisted).
    data: Mutex<(CatalogData, u64)>,
    /// Number of the last snapshot written to disk.
    persist: Mutex<u64>,
    path: PathBuf,
    wal: Arc<Wal>,
}

/// The classes persisted in `<dir>/catalog.json`, none before the file
/// exists. Reads nothing else, so a storage environment calls it before
/// it touches the directory: an earlier format's catalog, which held the
/// OID counter, is refused here.
pub(crate) fn load(dir: &Path) -> Result<CatalogData> {
    let path = dir.join("catalog.json");
    if !path.exists() {
        return Ok(HashMap::new());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| HeapError::Catalog(format!("read {}: {e}", path.display())))?;
    json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|value| from_json(&value))
        .map_err(|e| HeapError::Catalog(format!("parse {}: {e}", path.display())))
}

impl Catalog {
    /// The catalog of `classes` (from [`load`]) persisted under `dir`,
    /// taking OIDs from `wal`, which must replay before the first one.
    pub(crate) fn open(dir: &Path, classes: CatalogData, wal: Arc<Wal>) -> Self {
        Self {
            data: Mutex::with_rank((classes, 0), ranks::CATALOG),
            persist: Mutex::with_rank(0, ranks::CATALOG_PERSIST),
            path: dir.join("catalog.json"),
            wal,
        }
    }

    /// The one mutation path: run `edit` under the data lock and, when it
    /// succeeds, number the mutation; render the JSON under that lock,
    /// release it, then install the snapshot under the persist lock
    /// unless a newer one already won. A failed edit must leave the
    /// classes as it found them; nothing is numbered or written for it.
    fn mutate<T>(&self, edit: impl FnOnce(&mut CatalogData) -> Result<T>) -> Result<T> {
        let mut data = self.data.lock();
        let out = edit(&mut data.0)?;
        data.1 += 1;
        let (text, version) = (json::to_string_pretty(&to_json(&data.0)), data.1);
        drop(data);
        let mut last_written = self.persist.lock();
        if version > *last_written {
            // LINT: allow(R7, the persist lock exists to serialize snapshot writes; it is a file-I/O leaf rank never held with the data lock)
            atomic_write(&self.path, &text)?;
            *last_written = version;
        }
        Ok(out)
    }

    /// Allocate a fresh OID (also used for relations that have no name,
    /// like per-large-object chunk classes). The log's counter hands it
    /// out; the catalog does not change.
    pub fn alloc_oid(&self) -> Result<u64> {
        self.wal.next_oid().map_err(|e| HeapError::Catalog(format!("log the OID limit: {e}")))
    }

    /// Register a class. Errors if the name is taken.
    pub fn create_class(
        &self,
        name: &str,
        kind: ClassKind,
        smgr: SmgrId,
        props: HashMap<String, String>,
    ) -> Result<ClassMeta> {
        // Taken before the data lock: the log write must not run under it.
        let oid = self.alloc_oid()?;
        self.mutate(|data| {
            if data.contains_key(name) {
                return Err(HeapError::Catalog(format!("class \"{name}\" already exists")));
            }
            let meta = ClassMeta { oid, name: name.to_string(), kind, smgr: smgr.0, props };
            data.insert(name.to_string(), meta.clone());
            Ok(meta)
        })
    }

    /// Remove a class by name, returning its metadata.
    pub fn drop_class(&self, name: &str) -> Result<ClassMeta> {
        self.mutate(|data| data.remove(name).ok_or_else(|| no_such_class(name)))
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<ClassMeta> {
        self.data.lock().0.get(name).cloned()
    }

    /// All class names, sorted.
    // LINT: allow(R14, the REPL's \d listing in examples/postquel_repl.rs)
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.data.lock().0.keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove one property from a class. Returns whether it existed.
    pub fn remove_prop(&self, name: &str, key: &str) -> Result<bool> {
        self.mutate(|data| Ok(class_mut(data, name)?.props.remove(key).is_some()))
    }

    /// Set properties on a class. The whole batch lands in one snapshot,
    /// so a reader (and a crash) sees all of it or none of it.
    pub fn set_props(&self, name: &str, props: &[(&str, &str)]) -> Result<()> {
        self.mutate(|data| {
            let meta = class_mut(data, name)?;
            meta.props.extend(props.iter().map(|(k, v)| (k.to_string(), v.to_string())));
            Ok(())
        })
    }
}

fn no_such_class(name: &str) -> HeapError {
    HeapError::Catalog(format!("class \"{name}\" does not exist"))
}

fn class_mut<'a>(data: &'a mut CatalogData, name: &str) -> Result<&'a mut ClassMeta> {
    data.get_mut(name).ok_or_else(|| no_such_class(name))
}

/// Write `text` to `path` via a sibling temp file + rename, then fsync
/// the parent directory — without the dir sync a crash can lose the
/// rename itself and resurrect the old snapshot.
fn atomic_write(path: &Path, text: &str) -> Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)
        .map_err(|e| HeapError::Catalog(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| HeapError::Catalog(format!("rename: {e}")))?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| HeapError::Catalog(format!("sync dir {}: {e}", dir.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_wal::{WalOptions, FIRST_OID};

    /// The catalog under `dir`, its OIDs from the log under `dir/wal`,
    /// replayed as the storage environment replays it.
    fn open_catalog(dir: &Path) -> Catalog {
        let wal = Wal::open(dir.join("wal"), WalOptions::default()).unwrap();
        wal.replay(|_, _| Ok(())).unwrap();
        Catalog::open(dir, load(dir).unwrap(), Arc::new(wal))
    }

    fn temp_catalog() -> (tempfile::TempDir, Catalog) {
        let dir = tempfile::tempdir().unwrap();
        let cat = open_catalog(dir.path());
        (dir, cat)
    }

    #[test]
    fn create_get_drop() {
        let (_dir, cat) = temp_catalog();
        let meta = cat.create_class("EMP", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        assert!(meta.oid >= FIRST_OID);
        assert_eq!(cat.get("EMP").unwrap().oid, meta.oid);
        assert!(cat.create_class("EMP", ClassKind::Heap, SmgrId(0), HashMap::new()).is_err());
        cat.drop_class("EMP").unwrap();
        assert!(cat.get("EMP").is_none());
        assert!(cat.drop_class("EMP").is_err());
    }

    /// `alloc_oid` and `create_class` draw on one counter, the log's, and
    /// neither writes the OID into the catalog file.
    #[test]
    fn oids_unique() {
        let (dir, cat) = temp_catalog();
        let a = cat.alloc_oid().unwrap();
        let b = cat.alloc_oid().unwrap();
        let c = cat.create_class("X", ClassKind::BTree, SmgrId(1), HashMap::new()).unwrap().oid;
        assert!(a < b && b < c);
        let text = std::fs::read_to_string(dir.path().join("catalog.json")).unwrap();
        assert!(!text.contains("next_oid"), "{text}");
    }

    #[test]
    fn persists_and_reloads() {
        let dir = tempfile::tempdir().unwrap();
        let stray = {
            let cat = open_catalog(dir.path());
            let mut props = HashMap::new();
            props.insert("schema".to_string(), "name=text".to_string());
            cat.create_class("EMP", ClassKind::Heap, SmgrId(2), props).unwrap();
            // Handed out and never named in the catalog.
            cat.alloc_oid().unwrap()
        };
        let cat = open_catalog(dir.path());
        let meta = cat.get("EMP").unwrap();
        assert_eq!(meta.smgr_id(), SmgrId(2));
        assert_eq!(meta.props.get("schema").unwrap(), "name=text");
        // The log's OID counter resumed past both, the one the catalog
        // never saw included.
        let next = cat.alloc_oid().unwrap();
        assert!(next > meta.oid && next > stray);
    }

    /// A catalog written when the OID counter lived in it is refused, not
    /// opened with a counter that could hand its OIDs out again; a class
    /// that happens to be named `next_oid` is not mistaken for one.
    #[test]
    fn catalog_with_its_own_oid_counter_is_refused() {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("catalog.json"), r#"{"next_oid": 1002, "classes": {}}"#)
            .unwrap();
        let err = load(dir.path()).err().unwrap();
        assert!(err.to_string().contains("OID counter"), "{err}");

        let dir = tempfile::tempdir().unwrap();
        open_catalog(dir.path())
            .create_class("next_oid", ClassKind::Heap, SmgrId(0), HashMap::new())
            .unwrap();
        assert!(open_catalog(dir.path()).get("next_oid").is_some());
    }

    /// A failed mutation changes nothing, and `alloc_oid` leaves the
    /// catalog file alone.
    #[test]
    fn props_update() {
        let (dir, cat) = temp_catalog();
        let file = || std::fs::read_to_string(dir.path().join("catalog.json")).ok();
        cat.alloc_oid().unwrap();
        assert_eq!(file(), None, "alloc_oid wrote the catalog");
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        cat.set_props("T", &[("rows", "42")]).unwrap();
        assert_eq!(cat.get("T").unwrap().props.get("rows").unwrap(), "42");
        assert!(cat.remove_prop("T", "rows").unwrap());
        let written = file();
        assert!(cat.set_props("missing", &[("a", "b")]).is_err());
        assert_eq!(file(), written, "a failed set_props");
        assert!(!cat.remove_prop("T", "rows").unwrap());
        assert!(!cat.get("T").unwrap().props.contains_key("rows"));
        cat.drop_class("T").unwrap();
        assert!(cat.get("T").is_none());
    }

    /// A store whose catalog still names a large object's class, as the
    /// format that kept large-object metadata there did, is refused at
    /// open, with a catalog error naming that format.
    #[test]
    fn catalog_with_large_object_classes_is_refused() {
        let dir = tempfile::tempdir().unwrap();
        let old = r#"{"$lo_1000": {"oid": 1000, "name": "$lo_1000", "kind": "Heap", "smgr": 0}}"#;
        std::fs::write(dir.path().join("catalog.json"), old).unwrap();
        let err = crate::StorageEnv::open(dir.path()).err().unwrap();
        assert!(matches!(err, HeapError::Catalog(_)), "{err}");
        assert!(err.to_string().contains("large-object classes"), "{err}");
        assert!(err.to_string().contains("no import path"), "{err}");
    }

    #[test]
    fn set_props_batch_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let cat = open_catalog(dir.path());
            cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
            cat.set_props("T", &[("rows_xid", "7"), ("rows", "4096")]).unwrap();
        }
        let props = open_catalog(dir.path()).get("T").unwrap().props;
        assert_eq!(props.get("rows_xid").unwrap(), "7");
        assert_eq!(props.get("rows").unwrap(), "4096");
    }

    /// Two writers each stamp `rows` and the xid vouching for it in one
    /// batch (writer `w` always writes the pair `(w, w)`); a reader's
    /// `get` between their writes must never see one writer's count with
    /// the other's xid.
    #[test]
    fn set_props_batch_is_atomic_to_readers() {
        let (_dir, cat) = temp_catalog();
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
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
        let (_dir, cat) = temp_catalog();
        for n in ["zeta", "alpha", "mid"] {
            cat.create_class(n, ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        }
        assert_eq!(cat.class_names(), vec!["alpha", "mid", "zeta"]);
    }
}
