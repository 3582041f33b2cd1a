//! # pglo — Large Object Support in POSTGRES, reproduced in Rust
//!
//! A full reproduction of *Stonebraker & Olson, "Large Object Support in
//! POSTGRES" (ICDE 1993)*: the four large-ADT implementations (u-file,
//! p-file, f-chunk, v-segment) behind a file-oriented interface, the
//! table-driven user-defined storage-manager switch (magnetic disk, main
//! memory, WORM jukebox), chunking compression with just-in-time
//! decompression, temporary large objects with query-end garbage
//! collection, user-defined functions and operators over large ADTs, a
//! POSTQUEL-style query language, time travel, and the Inversion file
//! system — all on a POSTGRES-style no-overwrite storage substrate built
//! from scratch (slotted pages, buffer pool, MVCC heap, B-tree).
//!
//! ## Quick start
//!
//! ```
//! use pglo::query::Database;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db = Database::open(dir.path()).unwrap();
//! db.run_script(r#"
//!     create large type image (input = image_in, output = image_out,
//!                              storage = fchunk, compression = rle);
//!     create EMP (name = text, picture = image);
//!     append EMP (name = "Joe", picture = "640x480:7"::image)
//! "#).unwrap();
//! let result = db.run(r#"retrieve (EMP.picture) where EMP.name = "Joe""#).unwrap();
//! let picture = result.rows[0][0].as_large().unwrap().clone();
//! // File-oriented access to the large object (§4 of the paper):
//! let txn = db.begin();
//! let mut handle = db.store().open(&txn, picture.id, pglo::lobj::OpenMode::ReadOnly).unwrap();
//! let mut header = [0u8; 16];
//! handle.read_at(0, &mut header).unwrap();
//! assert_eq!(&header[..4], b"PGIM");
//! handle.close().unwrap();
//! txn.commit();
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `pglo-sim` | simulated clock, 1992 device profiles, CPU cost model |
//! | [`pages`] | `pglo-pages` | 8 KB slotted pages, TIDs |
//! | [`smgr`] | `pglo-smgr` | storage-manager switch; disk / memory / WORM managers |
//! | [`buffer`] | `pglo-buffer` | buffer pool |
//! | [`txn`] | `pglo-txn` | transactions, MVCC snapshots, time travel |
//! | [`wal`] | `pglo-wal` | redo log: group commit, checkpoints, crash recovery |
//! | [`heap`] | `pglo-heap` | catalog, storage environment, no-overwrite heap |
//! | [`btree`] | `pglo-btree` | B-tree access method |
//! | [`compress`] | `pglo-compress` | RLE / LZ77 codecs, cost model, workload synthesis |
//! | [`lobj`] | `pglo-core` | **the paper's contribution**: the four large-object implementations |
//! | [`adt`] | `pglo-adt` | large ADTs, functions, operators, `clip` |
//! | [`inversion`] | `pglo-inversion` | the Inversion file system |
//! | [`query`] | `pglo-query` | POSTQUEL subset |

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

pub use pglo_adt as adt;
pub use pglo_btree as btree;
pub use pglo_buffer as buffer;
pub use pglo_compress as compress;
pub use pglo_core as lobj;
pub use pglo_heap as heap;
pub use pglo_inversion as inversion;
pub use pglo_pages as pages;
pub use pglo_query as query;
pub use pglo_sim as sim;
pub use pglo_smgr as smgr;
pub use pglo_txn as txn;
pub use pglo_wal as wal;

/// The most commonly used names, in one import.
pub mod prelude {
    pub use pglo_adt::{Datum, ExecCtx, FunctionRegistry, TypeRegistry};
    pub use pglo_compress::CodecKind;
    pub use pglo_core::{LoId, LoKind, LoSpec, LoStore, OpenMode, UserId};
    pub use pglo_heap::{EnvOptions, Heap, StorageEnv};
    pub use pglo_inversion::InversionFs;
    pub use pglo_query::{Database, QueryResult};
    pub use pglo_txn::{Txn, Visibility};
}
