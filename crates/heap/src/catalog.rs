//! The class catalog: names, OIDs, storage-manager assignment, and
//! arbitrary per-class properties (the query layer stores column schemas
//! here; the large-object layer stores object metadata).
//!
//! Persisted as JSON in the database directory. The catalog is *metadata*,
//! not benchmarked data — see DESIGN.md's dependency policy for why JSON.

use crate::json::{self, Value};
use crate::{HeapError, Result};
use parking_lot::{ranks, Mutex};
use pglo_smgr::SmgrId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[derive(Debug, Default)]
struct CatalogData {
    next_oid: u64,
    classes: HashMap<String, ClassMeta>,
}

// JSON mapping, kept byte-compatible with the serde_json derive layout the
// seed used (enum variants as strings, `props` defaulting to empty).
impl CatalogData {
    fn to_json(&self) -> Value {
        let mut names: Vec<&String> = self.classes.keys().collect();
        names.sort();
        Value::Obj(vec![
            ("next_oid".into(), Value::Num(self.next_oid as f64)),
            (
                "classes".into(),
                Value::Obj(
                    names.into_iter().map(|n| (n.clone(), self.classes[n].to_json())).collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> std::result::Result<Self, String> {
        let next_oid = v.get("next_oid").and_then(Value::as_u64).ok_or("missing next_oid")?;
        let classes = match v.get("classes") {
            Some(Value::Obj(members)) => members
                .iter()
                .map(|(name, c)| ClassMeta::from_json(c).map(|m| (name.clone(), m)))
                .collect::<std::result::Result<HashMap<_, _>, String>>()?,
            Some(_) => return Err("classes is not an object".into()),
            None => HashMap::new(),
        };
        Ok(Self { next_oid, classes })
    }
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
/// Every mutator goes through the private `mutate`, which bumps the
/// version ([`Catalog::version`]) and never writes the file while holding
/// the data lock: it renders the JSON snapshot in memory, releases the
/// data lock, and then writes under the `persist` lock (rank
/// `heap.catalog_persist`), which serializes writers and drops snapshots
/// that lost the race to a newer version.
pub struct Catalog {
    data: Mutex<CatalogData>,
    /// Mutation counter (not persisted), bumped under the data lock.
    version: AtomicU64,
    /// Version of the last snapshot written to disk.
    persist: Mutex<u64>,
    path: PathBuf,
}

/// First OID handed out (lower values reserved for future bootstrap use).
const FIRST_OID: u64 = 1000;

impl Catalog {
    /// Load (or initialize) a catalog persisted under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let path = dir.as_ref().join("catalog.json");
        let data = if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| HeapError::Catalog(format!("read {}: {e}", path.display())))?;
            let value = json::parse(&text)
                .map_err(|e| HeapError::Catalog(format!("parse {}: {e}", path.display())))?;
            CatalogData::from_json(&value)
                .map_err(|e| HeapError::Catalog(format!("parse {}: {e}", path.display())))?
        } else {
            CatalogData { next_oid: FIRST_OID, classes: HashMap::new() }
        };
        Ok(Self {
            data: Mutex::with_rank(data, ranks::CATALOG),
            version: AtomicU64::new(0),
            persist: Mutex::with_rank(0, ranks::CATALOG_PERSIST),
            path,
        })
    }

    /// The one mutation path: run `edit` under the data lock and, when it
    /// succeeds, bump the version; render the JSON under that lock,
    /// release it, then install the snapshot
    /// under the persist lock unless a newer one already won. A failed
    /// edit must leave `data` as it found it; nothing is bumped or
    /// written for it.
    fn mutate<T>(&self, edit: impl FnOnce(&mut CatalogData) -> Result<T>) -> Result<T> {
        let mut data = self.data.lock();
        let out = edit(&mut data)?;
        let version = self.version.fetch_add(1, Ordering::SeqCst) + 1;
        let text = json::to_string_pretty(&data.to_json());
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
    /// like per-large-object chunk classes).
    pub fn alloc_oid(&self) -> Result<u64> {
        self.mutate(|data| {
            let oid = data.next_oid;
            data.next_oid += 1;
            Ok(oid)
        })
    }

    /// Register a class. Errors if the name is taken.
    pub fn create_class(
        &self,
        name: &str,
        kind: ClassKind,
        smgr: SmgrId,
        props: HashMap<String, String>,
    ) -> Result<ClassMeta> {
        self.mutate(|data| {
            if data.classes.contains_key(name) {
                return Err(HeapError::Catalog(format!("class \"{name}\" already exists")));
            }
            let meta =
                ClassMeta { oid: data.next_oid, name: name.to_string(), kind, smgr: smgr.0, props };
            data.next_oid += 1;
            data.classes.insert(name.to_string(), meta.clone());
            Ok(meta)
        })
    }

    /// Remove a class by name, returning its metadata.
    pub fn drop_class(&self, name: &str) -> Result<ClassMeta> {
        self.mutate(|data| data.classes.remove(name).ok_or_else(|| no_such_class(name)))
    }

    /// How many mutations this catalog has seen since it was opened. Any
    /// change of it may have changed any class: a reader that keeps what
    /// it resolved from the catalog keeps it only while this stands still.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<ClassMeta> {
        self.data.lock().classes.get(name).cloned()
    }

    /// All class names, sorted.
    // LINT: allow(R14, the REPL's \d listing in examples/postquel_repl.rs)
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.data.lock().classes.keys().cloned().collect();
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
    data.classes.get_mut(name).ok_or_else(|| no_such_class(name))
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

    fn temp_catalog() -> (tempfile::TempDir, Catalog) {
        let dir = tempfile::tempdir().unwrap();
        let cat = Catalog::open(dir.path()).unwrap();
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

    #[test]
    fn oids_unique() {
        let (_dir, cat) = temp_catalog();
        let a = cat.alloc_oid().unwrap();
        let b = cat.alloc_oid().unwrap();
        let c = cat.create_class("X", ClassKind::BTree, SmgrId(1), HashMap::new()).unwrap().oid;
        assert!(a < b && b < c);
    }

    #[test]
    fn persists_and_reloads() {
        let dir = tempfile::tempdir().unwrap();
        {
            let cat = Catalog::open(dir.path()).unwrap();
            let mut props = HashMap::new();
            props.insert("schema".to_string(), "name=text".to_string());
            cat.create_class("EMP", ClassKind::Heap, SmgrId(2), props).unwrap();
        }
        let cat = Catalog::open(dir.path()).unwrap();
        let meta = cat.get("EMP").unwrap();
        assert_eq!(meta.smgr_id(), SmgrId(2));
        assert_eq!(meta.props.get("schema").unwrap(), "name=text");
        // OID counter resumed, no collisions.
        let next = cat.alloc_oid().unwrap();
        assert!(next > meta.oid);
    }

    /// Whether `cat`'s version moved since `last`, which it then becomes.
    fn advanced(cat: &Catalog, last: &mut u64) -> bool {
        let now = cat.version();
        std::mem::replace(last, now) < now
    }

    /// Also: every mutating call advances the version, and a failed one
    /// does not.
    #[test]
    fn props_update() {
        let dir = tempfile::tempdir().unwrap();
        let cat = Catalog::open(dir.path()).unwrap();
        let v = &mut cat.version();
        cat.alloc_oid().unwrap();
        assert!(advanced(&cat, v), "alloc_oid");
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        assert!(advanced(&cat, v), "create_class");
        cat.set_props("T", &[("rows", "42")]).unwrap();
        assert!(advanced(&cat, v), "set_props");
        assert_eq!(cat.get("T").unwrap().props.get("rows").unwrap(), "42");
        assert!(cat.remove_prop("T", "rows").unwrap());
        assert!(advanced(&cat, v), "remove_prop");
        assert!(cat.set_props("missing", &[("a", "b")]).is_err());
        assert!(!advanced(&cat, v), "a failed set_props");
        assert!(!cat.remove_prop("T", "rows").unwrap());
        assert!(!cat.get("T").unwrap().props.contains_key("rows"));
        cat.drop_class("T").unwrap();
        assert!(advanced(&cat, v), "drop_class");
    }

    #[test]
    fn set_props_batch_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let cat = Catalog::open(dir.path()).unwrap();
            cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
            cat.set_props("T", &[("size_xid", "7"), ("size", "4096")]).unwrap();
        }
        let props = Catalog::open(dir.path()).unwrap().get("T").unwrap().props;
        assert_eq!(props.get("size_xid").unwrap(), "7");
        assert_eq!(props.get("size").unwrap(), "4096");
    }

    /// Two writers each stamp `size` and the xid vouching for it in one
    /// batch (writer `w` always writes the pair `(w, w)`); a reader's
    /// `get` between their writes must never see one writer's size with
    /// the other's xid.
    #[test]
    fn set_props_batch_is_atomic_to_readers() {
        let dir = tempfile::tempdir().unwrap();
        let cat = Catalog::open(dir.path()).unwrap();
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        cat.set_props("T", &[("size_xid", "1"), ("size", "1")]).unwrap();
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in ["1", "2"] {
                let (cat, done) = (&cat, &done);
                s.spawn(move || {
                    for _ in 0..200 {
                        cat.set_props("T", &[("size_xid", w), ("size", w)]).unwrap();
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            while done.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                let props = cat.get("T").unwrap().props;
                assert_eq!(props.get("size"), props.get("size_xid"));
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
