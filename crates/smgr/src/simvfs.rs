//! Test support: an in-memory [`Vfs`] that knows what a crash keeps: it
//! is [`HostVfs`](crate::HostVfs) in [`Durability::Power`] mode. Written
//! bytes are durable once synced, a create, rename or removal once it
//! returns (one map of entries serves both images; directories are
//! implicit in the paths). It logs each op, calls a hook after each (the
//! crash gates' kill points) and can fail the `k`-th op of a class.

use crate::vfs::{Durability, FileClass, FileIo, Vfs};
use parking_lot::{ranks, Mutex};
use pglo_pages::{PageBuf, PAGE_SIZE};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};

/// What an operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Open,
    Create,
    Exists,
    Read,
    Write,
    SetLen,
    Sync,
    Len,
    Rename,
    Remove,
    SyncDir,
    List,
    CreateDir,
}

impl OpKind {
    /// Whether the op changes what a crash leaves: a create, write, length
    /// change, rename, removal or new directory; or, for a power loss, a sync.
    // LINT: allow(R14, test support: the crash gates take a kill after each op it names)
    pub fn mutates(self) -> bool {
        use OpKind::*;
        matches!(self, Create | Write | SetLen | Sync | Rename | Remove | CreateDir)
    }
}

/// One operation a [`SimVfs`] let through; a rename names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub class: FileClass,
    pub path: PathBuf,
}

type Hook = Box<dyn Fn(&SimVfs, &Op) + Send + Sync>;

/// A file's bytes in pages an image shares until a write copies one; a
/// page never written reads as zeros, so a hole costs nothing.
#[derive(Clone, Default)]
struct Bytes {
    len: usize,
    pages: BTreeMap<usize, Arc<PageBuf>>,
}

impl Bytes {
    fn read(&self, buf: &mut [u8], off: usize) -> usize {
        let n = self.len.saturating_sub(off).min(buf.len());
        buf.fill(0);
        let mut done = 0;
        while done < n {
            let (page, at) = ((off + done) / PAGE_SIZE, (off + done) % PAGE_SIZE);
            let step = (PAGE_SIZE - at).min(n - done);
            if let Some(p) = self.pages.get(&page) {
                buf[done..done + step].copy_from_slice(&p[at..at + step]);
            }
            done += step;
        }
        n
    }

    fn write(&mut self, buf: &[u8], off: usize) {
        let mut done = 0;
        while done < buf.len() {
            let (page, at) = ((off + done) / PAGE_SIZE, (off + done) % PAGE_SIZE);
            let step = (PAGE_SIZE - at).min(buf.len() - done);
            let p = self.pages.entry(page).or_insert_with(|| Arc::new([0; PAGE_SIZE]));
            Arc::make_mut(p)[at..at + step].copy_from_slice(&buf[done..done + step]);
            done += step;
        }
        self.len = self.len.max(off + buf.len());
    }

    /// Past `len` every byte stays zero, so a later growth reads zeros.
    fn set_len(&mut self, len: usize) {
        self.pages.split_off(&len.div_ceil(PAGE_SIZE));
        if let Some(p) = self.pages.get_mut(&(len / PAGE_SIZE)) {
            Arc::make_mut(p)[len % PAGE_SIZE..].fill(0);
        }
        self.len = len;
    }
}

/// A file's bytes as written and as last synced.
#[derive(Default)]
struct Node {
    written: Bytes,
    synced: Bytes,
}

#[derive(Default)]
struct State {
    files: BTreeMap<PathBuf, usize>,
    /// Every file made, by number; a removed one's stays for its handles.
    nodes: Vec<Node>,
    ops: Vec<Op>,
    fuse: Option<(FileClass, u64)>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}: no such file", path.display()))
}

/// An in-memory file system with a process-kill and a power-loss image.
pub struct SimVfs {
    me: Weak<SimVfs>,
    state: Mutex<State>,
    hook: OnceLock<Hook>,
}

impl SimVfs {
    /// An empty file system, with an empty log and no fuse.
    pub fn new() -> Arc<Self> {
        let state = Mutex::with_rank(State::default(), ranks::SMGR_SIM_VFS);
        Arc::new_cyclic(|me| Self { me: Weak::clone(me), state, hook: OnceLock::new() })
    }

    /// What a crash in `mode` leaves, as a fresh file system: the written
    /// bytes after a process kill, the synced ones after a power loss.
    /// Taken under the lock, so at an operation boundary.
    // LINT: allow(R14, test support: the crash gates recover its images)
    pub fn crash(&self, mode: Durability) -> Arc<Self> {
        let state = self.state.lock();
        let mut image = State::default();
        for (path, &n) in &state.files {
            let node = &state.nodes[n];
            let kept = if mode == Durability::Process { &node.written } else { &node.synced };
            image.files.insert(path.clone(), image.nodes.len());
            image.nodes.push(Node { written: kept.clone(), synced: kept.clone() });
        }
        drop(state);
        let sim = Self::new();
        *sim.state.lock() = image;
        sim
    }

    /// Install `hook`, called after each operation with no lock of this
    /// layer held. Returns whether it is the first, kept.
    // LINT: allow(R14, test support: the crash gates take their kill points from it)
    pub fn on_op(&self, hook: impl Fn(&SimVfs, &Op) + Send + Sync + 'static) -> bool {
        self.hook.set(Box::new(hook)).is_ok()
    }

    /// Arm the fuse: `Some((class, k))` fails the `k`-th upcoming op of
    /// `class` (0 = the next), then clears; `None` disarms it.
    // LINT: allow(R14, test support: the failure-injection tests fail device I/O through it)
    pub fn fuse(&self, fuse: Option<(FileClass, u64)>) {
        self.state.lock().fuse = fuse;
    }

    /// Every operation let through so far, oldest first.
    // LINT: allow(R14, test support: the ordering and crash tests read the op log)
    pub fn ops(&self) -> Vec<Op> {
        self.state.lock().ops.clone()
    }

    /// Run `op` unless the fuse blows on it; log it and call the hook.
    fn run<T>(
        &self,
        kind: OpKind,
        class: FileClass,
        path: &Path,
        op: impl FnOnce(&mut State) -> io::Result<T>,
    ) -> io::Result<T> {
        let done = Op { kind, class, path: path.to_path_buf() };
        let mut state = self.state.lock();
        match &mut state.fuse {
            Some((c, 0)) if *c == class => {
                state.fuse = None;
                return Err(io::Error::other("injected device failure"));
            }
            Some((c, k)) if *c == class => *k -= 1,
            _ => {}
        }
        let out = op(&mut state)?;
        state.ops.push(done.clone());
        drop(state);
        if let Some(hook) = self.hook.get() {
            hook(self, &done);
        }
        Ok(out)
    }

    fn handle(&self, node: usize, class: FileClass, path: &Path) -> io::Result<Box<dyn FileIo>> {
        let vfs = self.me.upgrade().ok_or_else(|| io::Error::other("file system dropped"))?;
        Ok(Box::new(SimFile { vfs, node, class, path: path.to_path_buf() }))
    }
}

impl Vfs for SimVfs {
    fn durability(&self) -> Durability {
        Durability::Power
    }

    fn open_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>> {
        let node = self.run(OpKind::Open, class, path, |s| {
            s.files.get(path).copied().ok_or_else(|| not_found(path))
        })?;
        self.handle(node, class, path)
    }

    fn create_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>> {
        let node = self.run(OpKind::Create, class, path, |s| {
            let next = s.nodes.len();
            let node = *s.files.entry(path.to_path_buf()).or_insert(next);
            if node == next {
                s.nodes.push(Node::default());
            }
            Ok(node)
        })?;
        self.handle(node, class, path)
    }

    fn exists(&self, class: FileClass, path: &Path) -> io::Result<bool> {
        self.run(OpKind::Exists, class, path, |s| Ok(s.files.contains_key(path)))
    }

    fn rename_file(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        self.run(OpKind::Rename, class, to, |s| {
            let node = s.files.remove(from).ok_or_else(|| not_found(from))?;
            s.files.insert(to.to_path_buf(), node);
            Ok(())
        })
    }

    fn remove_file(&self, class: FileClass, path: &Path) -> io::Result<()> {
        self.run(OpKind::Remove, class, path, |s| {
            s.files.remove(path).map(drop).ok_or_else(|| not_found(path))
        })
    }

    fn sync_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        self.run(OpKind::SyncDir, class, dir, |_| Ok(()))
    }

    fn list_dir(&self, class: FileClass, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.run(OpKind::List, class, dir, |s| {
            Ok(s.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
        })
    }

    fn create_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        self.run(OpKind::CreateDir, class, dir, |_| Ok(()))
    }
}

/// An open [`SimVfs`] file; its path is the one it was opened at.
struct SimFile {
    vfs: Arc<SimVfs>,
    node: usize,
    class: FileClass,
    path: PathBuf,
}

impl SimFile {
    fn run<T>(&self, kind: OpKind, op: impl FnOnce(&mut Node) -> T) -> io::Result<T> {
        self.vfs.run(kind, self.class, &self.path, |s| Ok(op(&mut s.nodes[self.node])))
    }
}

impl FileIo for SimFile {
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        self.run(OpKind::Read, |node| node.written.read(buf, off as usize))
    }

    fn write_at(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.run(OpKind::Write, |node| node.written.write(buf, off as usize))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.run(OpKind::SetLen, |node| node.written.set_len(len as usize))
    }

    fn sync_data(&self) -> io::Result<()> {
        self.run(OpKind::Sync, |node| node.synced = node.written.clone())
    }

    fn len(&self) -> io::Result<u64> {
        self.run(OpKind::Len, |node| node.written.len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VFile;

    fn setup() -> (Arc<SimVfs>, Arc<dyn Vfs>, PathBuf) {
        let sim = SimVfs::new();
        let vfs: Arc<dyn Vfs> = sim.clone();
        vfs.create_dir(FileClass::Data, Path::new("db")).unwrap();
        (sim, vfs, PathBuf::from("db/f"))
    }

    /// The bytes of `path` in `vfs`, or `None` if it has no such file.
    fn bytes(vfs: &Arc<SimVfs>, path: &Path) -> Option<Vec<u8>> {
        let vfs: Arc<dyn Vfs> = vfs.clone();
        let f = VFile::open(&vfs, path.to_path_buf(), FileClass::Data).ok()?;
        let mut buf = vec![0; f.file_len().unwrap() as usize];
        f.read_at(&mut buf, 0).unwrap();
        Some(buf)
    }

    #[test]
    fn an_unsynced_write_is_lost_to_power_and_kept_by_a_kill() {
        let (sim, vfs, path) = setup();
        let f = VFile::create(&vfs, path.clone(), FileClass::Data).unwrap();
        f.write_at(b"synced", 0).unwrap();
        f.sync_data().unwrap();
        f.write_at(b"SYN", 0).unwrap();
        f.write_at(b" and not", 6).unwrap();
        assert_eq!(bytes(&sim.crash(Durability::Power), &path).unwrap(), b"synced");
        let kill = sim.crash(Durability::Process);
        assert_eq!(bytes(&kill, &path).unwrap(), b"SYNced and not");
        // A crash image starts synced: a power loss after it keeps it all.
        assert_eq!(bytes(&kill.crash(Durability::Power), &path).unwrap(), b"SYNced and not");
        // The live file moves on; the images do not.
        f.write_at(b"x", 0).unwrap();
        assert_eq!(bytes(&kill, &path).unwrap(), b"SYNced and not");
    }

    #[test]
    fn create_rename_and_remove_are_durable_on_return() {
        let (sim, vfs, path) = setup();
        let (moved, gone) = (PathBuf::from("db/g"), PathBuf::from("db/h"));
        VFile::create(&vfs, path.clone(), FileClass::Data).unwrap();
        VFile::create(&vfs, gone.clone(), FileClass::Data).unwrap().write_at(b"h", 0).unwrap();
        let made = sim.crash(Durability::Power);
        assert_eq!(bytes(&made, &path).unwrap(), b"");
        assert_eq!(bytes(&made, &gone).unwrap(), b"", "the unsynced byte is lost");
        vfs.rename_file(FileClass::Data, &path, &moved).unwrap();
        vfs.remove_file(FileClass::Data, &gone).unwrap();
        let image = sim.crash(Durability::Power);
        assert!(image.exists(FileClass::Data, &moved).unwrap());
        for old in [&path, &gone] {
            assert!(!image.exists(FileClass::Data, old).unwrap(), "{}", old.display());
        }
        assert_eq!(image.list_dir(FileClass::Data, Path::new("db")).unwrap(), [moved]);
        let err = vfs.remove_file(FileClass::Data, &gone).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn set_len_past_the_synced_length_then_a_crash() {
        let (sim, vfs, path) = setup();
        let f = VFile::create(&vfs, path.clone(), FileClass::Data).unwrap();
        f.write_at(b"abcd", 0).unwrap();
        f.sync_data().unwrap();
        f.set_len(10).unwrap();
        assert_eq!(bytes(&sim.crash(Durability::Power), &path).unwrap(), b"abcd");
        assert_eq!(bytes(&sim.crash(Durability::Process), &path).unwrap(), b"abcd\0\0\0\0\0\0");
        f.sync_data().unwrap();
        f.set_len(2).unwrap();
        assert_eq!(bytes(&sim.crash(Durability::Power), &path).unwrap(), b"abcd\0\0\0\0\0\0");
        assert_eq!(bytes(&sim.crash(Durability::Process), &path).unwrap(), b"ab");
    }

    #[test]
    fn the_fuse_fails_the_kth_op_of_a_class_then_clears() {
        let (sim, vfs, path) = setup();
        let f = VFile::create(&vfs, path.clone(), FileClass::Data).unwrap();
        let log = VFile::create(&vfs, PathBuf::from("db/log"), FileClass::Log).unwrap();
        sim.fuse(Some((FileClass::Data, 2)));
        let before = sim.ops().len();
        f.write_at(b"0", 0).unwrap();
        log.write_at(b"other class", 0).unwrap();
        f.write_at(b"1", 1).unwrap();
        let err = f.write_at(b"2", 2).unwrap_err();
        assert!(err.to_string().contains("injected device failure"), "{err}");
        f.write_at(b"3", 3).unwrap();
        assert_eq!(bytes(&sim, &path).unwrap(), b"01\x003");
        let kinds: Vec<_> = sim.ops()[before..].iter().map(|op| (op.kind, op.class)).collect();
        let write = |class| (OpKind::Write, class);
        let (data, log) = (write(FileClass::Data), write(FileClass::Log));
        assert_eq!(kinds[..4], [data, log, data, data], "the failed op is not logged");
    }
}
