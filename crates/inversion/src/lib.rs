//! The Inversion file system (§8): conventional files on top of database
//! large objects.
//!
//! "POSTGRES exports a file system interface to conventional application
//! programs. … Because the file system is supported on top of the DBMS, we
//! have called it the Inversion file system."
//!
//! The metadata layout is the paper's, verbatim:
//!
//! ```text
//! STORAGE   (file-id, large-object)
//! DIRECTORY (file-name, file-id, parent-file-id)
//! FILESTAT  (file-id, owner, mode, atime, mtime, size)
//! ```
//!
//! All three are ordinary heap classes (named `INV_STORAGE`,
//! `INV_DIRECTORY`, `INV_FILESTAT`) with B-tree indexes, their rows encoded
//! with the ADT layer's datum encoding and their schemas registered in the
//! catalog — so "a user can use the query language to perform searches on
//! the DIRECTORY class" works with no special cases. File reads and writes
//! are large-object reads and writes; everything is transactional; time
//! travel applies to both file contents and the directory tree; and because
//! file bytes go through the storage-manager switch, "any new storage
//! manager automatically supports Inversion files" (§10).

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod fs;
pub mod path;

pub use fs::{DirEntry, FileStat, InvFile, InversionFs, ROOT_ID};

use pglo_adt::AdtError;
use pglo_core::LoError;
use pglo_heap::HeapError;

/// Errors from Inversion operations.
#[derive(Debug)]
pub enum InvError {
    /// Lo.
    Lo(LoError),
    /// Heap.
    Heap(HeapError),
    /// Adt.
    Adt(AdtError),
    /// Path does not exist.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// Operation needs a directory but found a file, or vice versa.
    NotADirectory(String),
    /// IsADirectory.
    IsADirectory(String),
    /// rmdir of a non-empty directory.
    NotEmpty(String),
    /// Malformed path (empty component, missing leading '/').
    BadPath(String),
}

impl std::fmt::Display for InvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvError::Lo(e) => write!(f, "large object: {e}"),
            InvError::Heap(e) => write!(f, "heap: {e}"),
            InvError::Adt(e) => write!(f, "row: {e}"),
            InvError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            InvError::Exists(p) => write!(f, "already exists: {p}"),
            InvError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            InvError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            InvError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            InvError::BadPath(p) => write!(f, "bad path: {p}"),
        }
    }
}

impl std::error::Error for InvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InvError::Lo(e) => Some(e),
            InvError::Heap(e) => Some(e),
            InvError::Adt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoError> for InvError {
    fn from(e: LoError) -> Self {
        InvError::Lo(e)
    }
}

impl From<HeapError> for InvError {
    fn from(e: HeapError) -> Self {
        InvError::Heap(e)
    }
}

impl From<AdtError> for InvError {
    fn from(e: AdtError) -> Self {
        InvError::Adt(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, InvError>;
