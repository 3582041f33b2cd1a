//! One file layer (§5's switch carried below the managers): the log's
//! segments, the relation segment chains, `xact`, the WORM platters and
//! the u-file/p-file host files all cross a [`Vfs`], which hands out the
//! open files it owns ([`FileIo`]). [`HostVfs`] is the one production
//! implementation and the one place the [`Durability`] setting is read;
//! callers sync wherever the protocol needs it and never ask the mode.
//! Each [`VFile`] is opened with its [`FileClass`], which names its
//! `vfs.<class>.*` counters. The simulated clock is charged above this
//! layer, so nothing here moves a reproduced figure.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a file holds: fixed when its handle is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileClass {
    /// Redo-log segments.
    Log,
    /// Relation segment files.
    Data,
    /// The outcome table.
    Xact,
    /// WORM platter files.
    Platter,
    /// u-file and p-file host files.
    Native,
}

/// What a crash may take from the store's files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// A process kill: every write the OS accepted survives.
    Process,
    /// A power loss: only synced bytes and directory entries survive.
    Power,
}

/// The store's operations on paths, each naming the class of the file it
/// touches; an open file is a [`FileIo`] the `Vfs` hands out and owns.
pub trait Vfs: Send + Sync {
    /// The mode, for reports only: no caller branches on it.
    fn durability(&self) -> Durability;
    /// Open an existing file for reading and writing.
    fn open_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>>;
    /// Open a file for reading and writing, creating it if missing.
    fn create_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>>;
    /// Whether a file exists at `path`.
    fn exists(&self, class: FileClass, path: &Path) -> io::Result<bool>;
    /// Rename `from` to `to`.
    fn rename_file(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, class: FileClass, path: &Path) -> io::Result<()>;
    /// Make the entries of directory `dir` durable.
    fn sync_dir(&self, class: FileClass, dir: &Path) -> io::Result<()>;
    /// The paths of the entries of `dir`.
    fn list_dir(&self, class: FileClass, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create directory `dir` and its missing parents.
    fn create_dir(&self, class: FileClass, dir: &Path) -> io::Result<()>;
}

/// An open file, as its [`Vfs`] keeps it.
#[expect(
    clippy::len_without_is_empty,
    reason = "a file's length is an I/O call that can fail; no caller asks for emptiness"
)]
pub trait FileIo: Send + Sync {
    /// Fill `buf` from `off`, with zeros past the end of the file;
    /// returns how many bytes came from the file.
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<usize>;
    /// Write all of `buf` at `off`.
    fn write_at(&self, buf: &[u8], off: u64) -> io::Result<()>;
    /// Truncate or lengthen the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Make the file's bytes durable.
    fn sync_data(&self) -> io::Result<()>;
    /// The file's length in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// An open file of one [`FileClass`], which names its counters.
pub struct VFile {
    io: Box<dyn FileIo>,
    pub(crate) path: PathBuf,
    /// The class's `bytes_written` counter, looked up once at open.
    written: &'static obs::Counter,
    /// Written or resized through this handle since its last
    /// [`Self::sync_written`].
    unsynced: AtomicBool,
}

impl VFile {
    /// Open the existing file at `path`.
    pub fn open(vfs: &Arc<dyn Vfs>, path: PathBuf, class: FileClass) -> io::Result<Self> {
        Ok(Self::new(vfs.open_file(&path, class)?, path, class))
    }

    /// Open the file at `path`, creating it if missing.
    pub fn create(vfs: &Arc<dyn Vfs>, path: PathBuf, class: FileClass) -> io::Result<Self> {
        Ok(Self::new(vfs.create_file(&path, class)?, path, class))
    }

    fn new(io: Box<dyn FileIo>, path: PathBuf, class: FileClass) -> Self {
        let written = counter(class, Count::BytesWritten);
        Self { io, path, written, unsynced: AtomicBool::new(false) }
    }

    /// See [`FileIo::read_at`].
    pub fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        self.io.read_at(buf, off)
    }

    /// See [`FileIo::write_at`].
    pub fn write_at(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.io.write_at(buf, off)?;
        self.unsynced.store(true, Ordering::Release);
        self.written.add(buf.len() as u64);
        Ok(())
    }

    /// See [`FileIo::set_len`].
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        self.io.set_len(len)?;
        self.unsynced.store(true, Ordering::Release);
        Ok(())
    }

    /// See [`FileIo::sync_data`].
    pub fn sync_data(&self) -> io::Result<()> {
        self.io.sync_data()
    }

    /// [`Self::sync_data`] if this handle wrote or resized the file since
    /// its last call here. A write marks the file once it is done and the
    /// mark is cleared before the sync, so a write racing the sync marks
    /// it again; a failed sync restores it.
    pub fn sync_written(&self) -> io::Result<()> {
        if self.unsynced.swap(false, Ordering::AcqRel) {
            self.io.sync_data().inspect_err(|_| self.unsynced.store(true, Ordering::Release))?;
        }
        Ok(())
    }

    /// See [`FileIo::len`].
    pub fn file_len(&self) -> io::Result<u64> {
        self.io.len()
    }
}

/// The host's file system. In [`Durability::Process`] mode (a crash is
/// a process kill, which keeps every write the OS accepted) `sync_data`
/// and `sync_dir` do nothing; in [`Durability::Power`] mode `sync_data`
/// reaches the device, and a create, rename or remove has fsynced its
/// directory by the time it returns.
pub struct HostVfs {
    mode: Durability,
}

impl HostVfs {
    /// The host file system in `mode`, ready to hand to every component.
    pub fn shared(mode: Durability) -> Arc<dyn Vfs> {
        Arc::new(Self { mode })
    }

    /// Fsync the parent of `path`: a create, rename or remove is durable
    /// once its directory is.
    fn sync_parent(&self, class: FileClass, path: &Path) -> io::Result<()> {
        self.sync_dir(class, path.parent().unwrap_or(Path::new(".")))
    }
}

/// Which of a class's counters to bump.
#[derive(Clone, Copy)]
enum Count {
    Fsyncs,
    DirFsyncs,
    BytesWritten,
}

/// Counter `what` of `class` (`vfs.<class>.<what>`).
fn counter(class: FileClass, what: Count) -> &'static obs::Counter {
    use {Count::*, FileClass::*};
    match (class, what) {
        (Log, Fsyncs) => obs::counter!("vfs.log.fsyncs"),
        (Log, DirFsyncs) => obs::counter!("vfs.log.dir_fsyncs"),
        (Log, BytesWritten) => obs::counter!("vfs.log.bytes_written"),
        (Data, Fsyncs) => obs::counter!("vfs.data.fsyncs"),
        (Data, DirFsyncs) => obs::counter!("vfs.data.dir_fsyncs"),
        (Data, BytesWritten) => obs::counter!("vfs.data.bytes_written"),
        (Xact, Fsyncs) => obs::counter!("vfs.xact.fsyncs"),
        (Xact, DirFsyncs) => obs::counter!("vfs.xact.dir_fsyncs"),
        (Xact, BytesWritten) => obs::counter!("vfs.xact.bytes_written"),
        (Platter, Fsyncs) => obs::counter!("vfs.platter.fsyncs"),
        (Platter, DirFsyncs) => obs::counter!("vfs.platter.dir_fsyncs"),
        (Platter, BytesWritten) => obs::counter!("vfs.platter.bytes_written"),
        (Native, Fsyncs) => obs::counter!("vfs.native.fsyncs"),
        (Native, DirFsyncs) => obs::counter!("vfs.native.dir_fsyncs"),
        (Native, BytesWritten) => obs::counter!("vfs.native.bytes_written"),
    }
}

/// A host file, as [`HostVfs`] opened it.
struct HostFile {
    file: File,
    mode: Durability,
    class: FileClass,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the host file layer: the one place the store's durable state meets std::fs"
)]
impl FileIo for HostFile {
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            match self.file.read_at(&mut buf[done..], off + done as u64)? {
                0 => break,
                n => done += n,
            }
        }
        buf[done..].fill(0);
        Ok(done)
    }

    fn write_at(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.file.write_all_at(buf, off)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync_data(&self) -> io::Result<()> {
        if self.mode == Durability::Process {
            return Ok(());
        }
        let _span = (self.class == FileClass::Log).then(|| obs::span!("wal.fsync"));
        counter(self.class, Count::Fsyncs).inc();
        self.file.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the host file layer: the one place the store's durable state meets std::fs"
)]
impl Vfs for HostVfs {
    fn durability(&self) -> Durability {
        self.mode
    }

    fn open_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(HostFile { file, mode: self.mode, class }))
    }

    fn create_file(&self, path: &Path, class: FileClass) -> io::Result<Box<dyn FileIo>> {
        match OpenOptions::new().read(true).write(true).create_new(true).open(path) {
            Ok(file) => {
                self.sync_parent(class, path)?;
                Ok(Box::new(HostFile { file, mode: self.mode, class }))
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => self.open_file(path, class),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, _class: FileClass, path: &Path) -> io::Result<bool> {
        path.try_exists()
    }

    fn rename_file(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        self.sync_dir(class, to.parent().unwrap_or(Path::new(".")))
    }

    fn remove_file(&self, class: FileClass, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)?;
        self.sync_parent(class, path)
    }

    fn sync_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        if self.mode == Durability::Process {
            return Ok(());
        }
        counter(class, Count::DirFsyncs).inc();
        File::open(dir)?.sync_all()
    }

    fn list_dir(&self, _class: FileClass, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(dir)?.map(|e| Ok(e?.path())).collect()
    }

    fn create_dir(&self, class: FileClass, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.sync_parent(class, dir)
    }
}
