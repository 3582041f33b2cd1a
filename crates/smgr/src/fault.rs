//! Test support: a [`Vfs`] that records what reaches the files and fails
//! on demand. [`FaultVfs`] wraps another `Vfs` (normally the host's),
//! logs every operation that succeeds with its file class, calls a hook
//! after each, and can fail the `k`-th upcoming operation of a class.
//! Crash tests take their kill points from the hook; failure-injection
//! tests blow the fuse under any layer above the files.

use crate::vfs::{Durability, FileClass, VFile, Vfs};
use parking_lot::{ranks, Mutex};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// What an operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Open,
    Create,
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
    /// Whether the operation changes what a process kill leaves behind.
    // LINT: allow(R14, test support: the crash gates take a kill after each op it names)
    pub fn mutates(self) -> bool {
        use OpKind::*;
        matches!(self, Create | Write | SetLen | Rename | Remove | CreateDir)
    }
}

/// One operation a [`FaultVfs`] let through; a rename names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub class: FileClass,
    pub path: PathBuf,
}

type Hook = Box<dyn Fn(&Op) + Send + Sync>;

/// `(class, k)`: that class's `k`-th upcoming op fails (0 = the next).
type Fuse = Option<(FileClass, u64)>;

/// A recording, fault-injecting [`Vfs`] over another one.
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    /// The op log, and the fuse.
    state: Mutex<(Vec<Op>, Fuse)>,
    hook: OnceLock<Hook>,
}

impl FaultVfs {
    /// A fault layer over `inner`, with an empty log and no fuse.
    pub fn new(inner: Arc<dyn Vfs>) -> Arc<Self> {
        let state = Mutex::with_rank((Vec::new(), None), ranks::SMGR_FAULT_VFS);
        Arc::new(Self { inner, state, hook: OnceLock::new() })
    }

    /// Install `hook`, called after each operation with no lock of this
    /// layer held. Returns whether it is the first, kept.
    // LINT: allow(R14, test support: the crash gates take their kill points from it)
    pub fn on_op(&self, hook: impl Fn(&Op) + Send + Sync + 'static) -> bool {
        self.hook.set(Box::new(hook)).is_ok()
    }

    /// Arm the fuse: `Some((class, k))` fails the `k`-th upcoming
    /// operation of `class` (0 = the next) with an "injected device
    /// failure", then clears; `None` disarms it.
    // LINT: allow(R14, test support: the failure-injection tests fail device I/O through it)
    pub fn fuse(&self, fuse: Fuse) {
        self.state.lock().1 = fuse;
    }

    /// Every operation let through so far, oldest first.
    // LINT: allow(R14, test support: the ordering and fsync-count tests read the op log)
    pub fn ops(&self) -> Vec<Op> {
        self.state.lock().0.clone()
    }

    /// Run `op` unless the fuse blows on it; log it and call the hook.
    fn run<T>(
        &self,
        kind: OpKind,
        class: FileClass,
        path: &Path,
        op: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        {
            let mut state = self.state.lock();
            match &mut state.1 {
                Some((c, 0)) if *c == class => {
                    state.1 = None;
                    return Err(io::Error::other("injected device failure"));
                }
                Some((c, k)) if *c == class => *k -= 1,
                _ => {}
            }
        }
        let out = op()?;
        let done = Op { kind, class, path: path.to_path_buf() };
        self.state.lock().0.push(done.clone());
        if let Some(hook) = self.hook.get() {
            hook(&done);
        }
        Ok(out)
    }
}

impl Vfs for FaultVfs {
    fn durability(&self) -> Durability {
        self.inner.durability()
    }

    fn open_file(&self, path: &Path, class: FileClass) -> io::Result<File> {
        self.run(OpKind::Open, class, path, || self.inner.open_file(path, class))
    }

    fn create_file(&self, path: &Path, class: FileClass) -> io::Result<File> {
        self.run(OpKind::Create, class, path, || self.inner.create_file(path, class))
    }

    fn read_at(&self, f: &VFile, buf: &mut [u8], off: u64) -> io::Result<usize> {
        self.run(OpKind::Read, f.class, &f.path, || self.inner.read_at(f, buf, off))
    }

    fn write_at(&self, f: &VFile, buf: &[u8], off: u64) -> io::Result<()> {
        self.run(OpKind::Write, f.class, &f.path, || self.inner.write_at(f, buf, off))
    }

    fn set_len(&self, f: &VFile, len: u64) -> io::Result<()> {
        self.run(OpKind::SetLen, f.class, &f.path, || self.inner.set_len(f, len))
    }

    fn sync_data(&self, f: &VFile) -> io::Result<()> {
        self.run(OpKind::Sync, f.class, &f.path, || self.inner.sync_data(f))
    }

    fn file_len(&self, f: &VFile) -> io::Result<u64> {
        self.run(OpKind::Len, f.class, &f.path, || self.inner.file_len(f))
    }

    fn rename_file(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        self.run(OpKind::Rename, class, to, || self.inner.rename_file(class, from, to))
    }

    fn remove_file(&self, class: FileClass, path: &Path) -> io::Result<()> {
        self.run(OpKind::Remove, class, path, || self.inner.remove_file(class, path))
    }

    fn sync_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        self.run(OpKind::SyncDir, class, dir, || self.inner.sync_dir(class, dir))
    }

    fn list_dir(&self, class: FileClass, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.run(OpKind::List, class, dir, || self.inner.list_dir(class, dir))
    }

    fn create_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        self.run(OpKind::CreateDir, class, dir, || self.inner.create_dir(class, dir))
    }
}
