//! Per-connection server state: the session-owned transaction, the open
//! descriptor table, and the temporary-object registry.
//!
//! A session owns at most one transaction at a time (`begin` .. `commit` /
//! `abort`). Descriptors are [`LoCursor`]s — positioned, transaction-free —
//! so they survive across frames and re-bind to whatever transaction the
//! session currently holds. A descriptor holds its object's open for one
//! transaction: `lo_open` opens it, and later frames reuse that open while
//! the transaction's XID and the catalog version it was opened at both
//! still match, re-opening otherwise. Every frame flushes its writes and
//! keeps no object bytes, so nothing is pending or stale between frames.
//! When the connection dies with a transaction
//! still open, dropping the session drops the [`Txn`], whose RAII drop
//! aborts it: an orphaned transaction can never commit.

use pglo_core::{LoCursor, LoId, LoStore};
use pglo_txn::Txn;
use std::collections::HashMap;

/// State for one client connection.
pub struct Session {
    /// Stable id for logging/diagnostics.
    pub(crate) id: u64,
    /// The session transaction, if one is open.
    pub(crate) txn: Option<Txn>,
    /// Open descriptors.
    pub(crate) fds: HashMap<u32, LoCursor>,
    pub(crate) next_fd: u32,
    /// Temporaries created by this session, reclaimed at `gc_temps` or
    /// disconnect unless promoted with `lo_keep_temp`.
    pub(crate) temps: Vec<LoId>,
}

impl Session {
    /// A fresh session.
    pub fn new(id: u64) -> Self {
        Self { id, txn: None, fds: HashMap::new(), next_fd: 1, temps: Vec::new() }
    }

    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Register a cursor, returning its descriptor.
    pub(crate) fn install(&mut self, cursor: LoCursor) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, cursor);
        fd
    }

    /// Reclaim this session's temporaries that were not promoted. Returns
    /// how many objects were unlinked. Safe to call with or without a
    /// transaction: `unlink` operates on object metadata directly.
    pub fn gc_temps(&mut self, store: &LoStore) -> usize {
        let mut reclaimed = 0;
        for id in self.temps.drain(..) {
            // `keep_temp` deregisters and reports whether it was still
            // temporary; promoted objects return false and are kept.
            if store.keep_temp(id) && store.unlink(id).is_ok() {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// End-of-connection cleanup: reclaim temporaries and abort any
    /// orphaned transaction (by dropping it).
    pub fn close(&mut self, store: &LoStore) {
        self.gc_temps(store);
        self.fds.clear();
        // Dropping the Txn aborts it if the client never committed.
        self.txn = None;
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("in_txn", &self.txn.is_some())
            .field("fds", &self.fds.len())
            .field("temps", &self.temps.len())
            .finish()
    }
}
