//! Per-connection server state: the session-owned transaction, the open
//! descriptor table, and the temporary-object registry.
//!
//! A session owns at most one transaction at a time (`begin` .. `commit` /
//! `abort`). Descriptors are [`LoCursor`]s — positioned, transaction-free —
//! so they survive across frames and re-bind to whatever transaction the
//! session currently holds. A descriptor holds its object's open for one
//! transaction: `lo_open` opens it, and later frames reuse that open while
//! the transaction's XID, the catalog version it was opened at and the
//! transaction's count of its own size-growing flushes all still match,
//! re-opening otherwise: a sibling descriptor's extension re-opens it,
//! another session's commit does not (the snapshot cannot see it). Every
//! frame flushes its writes and keeps no object bytes, so nothing is
//! pending or stale between frames.
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

    /// Register a cursor, returning its descriptor.
    pub(crate) fn install(&mut self, cursor: LoCursor) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, cursor);
        fd
    }

    /// Reclaim this session's temporaries that were not promoted. Returns
    /// how many objects were unlinked. Safe to call with or without a
    /// transaction: `unlink` operates on object metadata directly. A
    /// failed unlink is counted and its id kept for the next sweep.
    pub fn gc_temps(&mut self, store: &LoStore) -> usize {
        let mut reclaimed = 0;
        self.temps.retain(|&id| match store.gc_temp(id) {
            Ok(freed) => {
                reclaimed += usize::from(freed);
                false
            }
            Err(_) => {
                obs::counter!("server.session.gc_temps.errors").add(1);
                true
            }
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use pglo_core::{LoError, LoSpec};
    use pglo_heap::StorageEnv;
    use std::sync::Arc;

    /// A temp whose unlink fails stays the session's, and the next sweep
    /// reclaims it; one somebody already unlinked counts as reclaimed.
    #[test]
    fn gc_temps_keeps_a_temp_whose_unlink_failed() {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        let mut session = Session::new(1);
        let txn = env.begin();
        let gone = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
        let stuck = store.create_temp(&txn, &LoSpec::fchunk()).unwrap();
        txn.commit();
        session.temps.extend([gone, stuck]);
        store.unlink(gone).unwrap();

        // Nothing can be written where `catalog.json` stages its next
        // version, so `stuck`'s unlink fails installing the catalog.
        let staging = dir.path().join("catalog.json.tmp");
        std::fs::create_dir(&staging).unwrap();
        assert_eq!(session.gc_temps(&store), 1, "the temp already unlinked is reclaimed");
        assert_eq!(session.temps, [stuck], "the failed temp stays the session's");
        assert_eq!(store.temp_count(), 1, "and the store's");

        std::fs::remove_dir(&staging).unwrap();
        assert_eq!(session.gc_temps(&store), 1);
        assert!(session.temps.is_empty());
        assert!(matches!(store.meta(stuck), Err(LoError::NotFound(_))));
    }
}
