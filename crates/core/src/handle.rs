//! The file-oriented large-object interface (§4).
//!
//! "The application can then open the large object, seek to any byte
//! location, and read any number of bytes. The application need not buffer
//! the entire object; it can manage only the bytes it actually needs at one
//! time."
//!
//! [`LoHandle`] also implements [`std::io::Read`], [`std::io::Write`] and
//! [`std::io::Seek`], making the paper's §4 claim literal in Rust: code
//! written against `std::io` files runs unmodified against database large
//! objects.

use crate::{LoError, Result};
use pglo_txn::Txn;
use std::io::SeekFrom;

/// How a handle was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Reads only; writes fail with [`LoError::ReadOnly`]. Time-travel
    /// handles are always read-only.
    ReadOnly,
    /// Reads and writes.
    ReadWrite,
}

/// The operations each of the four implementations provides. Offsets are
/// absolute; [`LoHandle`] layers the seek pointer on top.
///
/// A backend borrows no transaction: the write path is handed the one it
/// writes as on every call, which must be the one the backend was opened
/// under.
pub trait LoBackend: Send {
    /// Read up to `buf.len()` bytes at `offset`; short reads only at end of
    /// object.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Write all of `data` at `offset` as `txn`, extending the object if
    /// needed.
    fn write_at(&mut self, txn: &Txn, offset: u64, data: &[u8]) -> Result<()>;

    /// Current logical size in bytes.
    fn size(&mut self) -> Result<u64>;

    /// Push buffered chunks to the storage layer as `txn`, counting in
    /// `txn` a flush that grew the object ([`Txn::extensions`]). With no
    /// transaction only a backend holding no writes flushes.
    fn flush(&mut self, txn: Option<&Txn>) -> Result<()>;

    /// Forget the object bytes a read left cached, keeping what the open
    /// resolved (metadata, size, relations, visibility). Buffered writes
    /// stay until a flush.
    fn forget_bytes(&mut self) {}
}

/// Flush `backend` best-effort, for a caller about to drop it that has no
/// one to report the error to: it is counted, not returned.
pub(crate) fn flush_before_drop(backend: &mut dyn LoBackend, txn: Option<&Txn>) {
    if backend.flush(txn).is_err() {
        obs::counter!("lo.drop_flush.errors").add(1);
    }
}

/// An open large object descriptor.
///
/// The handle derives the size from what its snapshot sees, when an
/// operation first needs it: the end of the last visible chunk (f-chunk)
/// or the largest end of a visible segment (v-segment), and its own
/// writes move it on. Nothing else records a size, so an aborted
/// extension leaves none behind.
pub struct LoHandle<'a> {
    backend: Box<dyn LoBackend>,
    /// The transaction the handle was opened under; `None` for time travel.
    txn: Option<&'a Txn>,
    pos: u64,
    mode: OpenMode,
}

impl<'a> LoHandle<'a> {
    pub(crate) fn new(backend: Box<dyn LoBackend>, mode: OpenMode, txn: Option<&'a Txn>) -> Self {
        Self { backend, txn, pos: 0, mode }
    }

    /// The transaction writes go out as, if this handle may write.
    fn writer(&self) -> Result<&'a Txn> {
        match (self.mode, self.txn) {
            (OpenMode::ReadWrite, Some(txn)) => Ok(txn),
            _ => Err(LoError::ReadOnly),
        }
    }

    /// Read up to `buf.len()` bytes at the seek pointer, advancing it.
    /// Returns bytes read; 0 at end of object.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.backend.read_at(self.pos, buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    /// Read at an explicit offset without moving the seek pointer.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.backend.read_at(offset, buf)
    }

    /// Write all of `data` at the seek pointer, advancing it.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        self.backend.write_at(self.writer()?, self.pos, data)?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Write at an explicit offset without moving the seek pointer.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.backend.write_at(self.writer()?, offset, data)
    }

    /// Move the seek pointer. Seeking past the end is allowed (a later
    /// write creates a sparse region that reads back as zeros).
    pub fn seek(&mut self, from: SeekFrom) -> Result<u64> {
        let size = self.backend.size()?;
        let new = match from {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
            SeekFrom::End(d) => size as i128 + d as i128,
        };
        if new < 0 {
            return Err(LoError::Unsupported("seek before start of object"));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }

    /// The seek pointer.
    pub fn tell(&self) -> u64 {
        self.pos
    }

    /// Logical object size.
    pub fn size(&mut self) -> Result<u64> {
        self.backend.size()
    }

    /// Flush buffered data.
    pub fn flush(&mut self) -> Result<()> {
        self.backend.flush(self.txn)
    }

    /// Flush and consume the handle, surfacing the flush's error. The
    /// handle then drops as any other: `Drop` flushes the now-clean
    /// backend again, which writes nothing, and the backend (its chunk
    /// cache, its hold on the storage environment) is freed.
    pub fn close(mut self) -> Result<()> {
        self.backend.flush(self.txn)
    }

    /// Read the entire object from the start (convenience).
    pub fn read_to_vec(&mut self) -> Result<Vec<u8>> {
        let size = self.backend.size()?;
        let mut out = vec![0u8; size as usize];
        let mut done = 0;
        while done < out.len() {
            let n = self.backend.read_at(done as u64, &mut out[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        out.truncate(done);
        Ok(out)
    }
}

impl Drop for LoHandle<'_> {
    fn drop(&mut self) {
        // Best-effort flush; use `close()` to observe failures.
        flush_before_drop(self.backend.as_mut(), self.txn);
    }
}

fn to_io(e: LoError) -> std::io::Error {
    std::io::Error::other(e)
}

impl std::io::Read for LoHandle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        LoHandle::read(self, buf).map_err(to_io)
    }
}

impl std::io::Write for LoHandle<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        LoHandle::write(self, buf).map_err(to_io)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        LoHandle::flush(self).map_err(to_io)
    }
}

impl std::io::Seek for LoHandle<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        LoHandle::seek(self, pos).map_err(to_io)
    }
}
