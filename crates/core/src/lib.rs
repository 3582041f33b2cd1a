//! Large objects as large abstract data types — the paper's primary
//! contribution.
//!
//! Four implementations of large ADTs (§6), all behind one file-oriented
//! interface (§4):
//!
//! * **u-file** (§6.1): the large object *is* a user-named host file. The
//!   user controls placement; the DBMS guarantees nothing (no access
//!   control, no transactions, no versions).
//! * **p-file** (§6.2): a host file too, but allocated and owned by the
//!   DBMS (`newfilename()`), so it is updatable by a single user.
//! * **f-chunk** (§6.3): the object is broken into fixed-length chunks
//!   stored as records `(sequence-number, data)` in a POSTGRES class with a
//!   B-tree on the sequence number. Transactions and time travel come for
//!   free from the no-overwrite heap; compression (if configured) is
//!   per-chunk with just-in-time decompression.
//! * **v-segment** (§6.4): the object is a set of variable-length
//!   *segments* — one per write — compressed individually, concatenated
//!   into an underlying f-chunk byte store, and located through a segment
//!   index `(locn, length, compressed_len, byte_pointer)`. The unit of
//!   compression is the segment, so any compression ratio translates into
//!   space savings, and the index's no-overwrite heap gives time travel.
//!
//! The interface is deliberately file-like (§4: "a function can be written
//! and debugged using files, and then moved into the database where it can
//! manage large objects without being rewritten"): open, seek, read,
//! write, close. [`LoStore`] is the object manager; [`LoHandle`] the open
//! descriptor. Temporary large objects (§5) are registered per query and
//! garbage-collected when it completes.

pub mod cursor;
pub mod fchunk;
pub mod handle;
pub mod meta;
pub mod pfile;
pub mod store;
mod stored_form;
pub mod temp;
pub mod ufile;
pub mod vsegment;

pub use cursor::LoCursor;
pub use handle::{LoBackend, LoHandle, OpenMode};
pub use meta::{LoKind, LoMeta};
pub use store::{LoSpec, LoStore};
pub use temp::TempScope;

use pglo_compress::CorruptData;
use pglo_heap::HeapError;
use pglo_smgr::SmgrError;

/// A large object identifier — "POSTGRES will return a large object name"
/// (§4); this is that name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoId(pub u64);

impl std::fmt::Display for LoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lo:{}", self.0)
    }
}

impl LoId {
    /// Parse the textual form produced by `Display` (`lo:<n>`).
    pub fn parse(s: &str) -> Option<LoId> {
        s.strip_prefix("lo:")?.parse().ok().map(LoId)
    }
}

/// A user identity for p-file ownership checks (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(pub u32);

impl UserId {
    /// The database superuser; owns objects created outside any identity.
    pub const DBA: UserId = UserId(0);
}

/// The f-chunk chunk size: "the user's large object would be broken into a
/// collection of 8K sub-objects" with "a small amount of space reserved for
/// the tuple and page headers" (§6.3). 8000 bytes of user data plus our
/// headers fill one 8 KB page; a chunk compressed to ≤ ~50 % packs two per
/// page, one compressed to 70 % still occupies a page alone — the geometry
/// behind Figure 1.
pub const CHUNK_SIZE: usize = 8000;

/// Largest single v-segment; larger writes are split. Bounds the backward
/// index probe a read needs ("which segment covers byte X" can look back at
/// most this far).
pub const MAX_SEGMENT: usize = 65536;

/// Errors from the large-object layer.
#[derive(Debug)]
pub enum LoError {
    /// Heap.
    Heap(HeapError),
    /// Smgr.
    Smgr(SmgrError),
    /// Corrupt.
    Corrupt(CorruptData),
    /// Unknown large object.
    NotFound(LoId),
    /// p-file permission failure.
    Permission {
        /// The object being opened.
        lo: LoId,
        /// The denied user.
        user: UserId,
    },
    /// Write attempted through a read-only handle.
    ReadOnly,
    /// Operation not supported by this implementation (e.g. truncate on a
    /// time-travel handle).
    Unsupported(&'static str),
    /// Host I/O on a u-file/p-file path.
    Io(std::io::Error),
    /// Metadata damage.
    Meta(String),
}

impl std::fmt::Display for LoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoError::Heap(e) => write!(f, "heap: {e}"),
            LoError::Smgr(e) => write!(f, "storage: {e}"),
            LoError::Corrupt(e) => write!(f, "{e}"),
            LoError::NotFound(id) => write!(f, "large object {id} not found"),
            LoError::Permission { lo, user } => {
                write!(f, "user {user:?} may not write large object {lo}")
            }
            LoError::ReadOnly => write!(f, "handle is read-only"),
            LoError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            LoError::Io(e) => write!(f, "io: {e}"),
            LoError::Meta(msg) => write!(f, "metadata: {msg}"),
        }
    }
}

impl std::error::Error for LoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoError::Heap(e) => Some(e),
            LoError::Smgr(e) => Some(e),
            LoError::Corrupt(e) => Some(e),
            LoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for LoError {
    fn from(e: HeapError) -> Self {
        LoError::Heap(e)
    }
}

impl From<pglo_buffer::BufferError> for LoError {
    fn from(e: pglo_buffer::BufferError) -> Self {
        LoError::Heap(HeapError::Buffer(e))
    }
}

impl From<SmgrError> for LoError {
    fn from(e: SmgrError) -> Self {
        LoError::Smgr(e)
    }
}

impl From<CorruptData> for LoError {
    fn from(e: CorruptData) -> Self {
        LoError::Corrupt(e)
    }
}

impl From<std::io::Error> for LoError {
    fn from(e: std::io::Error) -> Self {
        LoError::Io(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, LoError>;

#[cfg(test)]
mod tests;
