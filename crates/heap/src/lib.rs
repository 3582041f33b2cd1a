//! Classes (relations) and the no-overwrite heap access method.
//!
//! Large objects in the f-chunk and v-segment implementations are "stored
//! in POSTGRES classes for which transaction support is automatically
//! provided" (§6.3). This crate provides those classes: a catalog of class
//! metadata, a shared [`StorageEnv`] tying together the simulator, the
//! storage-manager switch, the buffer pool and the transaction manager, and
//! the heap access method itself — insert, visibility-checked fetch and
//! scan, no-overwrite delete/update (old versions are retained for time
//! travel), and a vacuum that reclaims versions older than a chosen
//! horizon.

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

pub mod archive;
pub mod catalog;
pub mod env;
pub mod heap;
pub mod json;
pub mod tuple;

pub use archive::{archive_vacuum, scan_as_of_with_archive};
pub use catalog::{Catalog, ClassKind, ClassMeta};
pub use env::{EnvOptions, StorageEnv};
pub use heap::{no_index, Heap, HeapScan};
pub use pglo_buffer::AccessHint;
pub use tuple::{TupleHeader, TUPLE_HEADER_SIZE};

use pglo_buffer::BufferError;
use pglo_pages::Tid;
use pglo_smgr::SmgrError;

/// Errors from heap and catalog operations.
#[derive(Debug)]
pub enum HeapError {
    /// Buffer.
    Buffer(BufferError),
    /// Smgr.
    Smgr(SmgrError),
    /// Catalog-level problem (duplicate class, missing class, bad persist).
    Catalog(String),
    /// Tuple payload exceeds what one page can hold — POSTGRES does not
    /// break tuples across pages.
    TupleTooLarge {
        /// The tuple's on-page size.
        size: usize,
        /// The page capacity.
        max: usize,
    },
    /// The tuple was already deleted/updated by another transaction.
    WriteConflict {
        /// The contested tuple.
        tid: Tid,
    },
    /// No tuple at this TID.
    TupleNotFound {
        /// The missing tuple's identifier.
        tid: Tid,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::Buffer(e) => write!(f, "buffer: {e}"),
            HeapError::Smgr(e) => write!(f, "storage: {e}"),
            HeapError::Catalog(msg) => write!(f, "catalog: {msg}"),
            HeapError::TupleTooLarge { size, max } => {
                write!(f, "tuple of {size} bytes exceeds page capacity of {max}")
            }
            HeapError::WriteConflict { tid } => write!(f, "write conflict on tuple {tid}"),
            HeapError::TupleNotFound { tid } => write!(f, "no tuple at {tid}"),
        }
    }
}

impl std::error::Error for HeapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeapError::Buffer(e) => Some(e),
            HeapError::Smgr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BufferError> for HeapError {
    fn from(e: BufferError) -> Self {
        HeapError::Buffer(e)
    }
}

impl From<SmgrError> for HeapError {
    fn from(e: SmgrError) -> Self {
        HeapError::Smgr(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, HeapError>;
