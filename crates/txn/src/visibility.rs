//! The single tuple-visibility routine used by every access method.

use crate::manager::{Snapshot, TxnManager, TxnStatus};
use crate::Xid;

/// What a reader is allowed to see.
#[derive(Debug, Clone)]
pub enum Visibility {
    /// Conventional MVCC: the reader's snapshot, plus its own XID so it
    /// sees its own uncommitted writes.
    Snapshot {
        /// The frozen view of which transactions have finished.
        snapshot: Snapshot,
        /// The reading transaction's own XID.
        own: Xid,
    },
    /// Time travel: the database exactly as of logical commit timestamp
    /// `ts` — tuples inserted by transactions committed at or before `ts`
    /// and not deleted by any transaction committed at or before `ts`.
    AsOf(u64),
    /// Every version of every tuple, committed or not. Used by vacuum and
    /// storage-accounting tools, never by queries.
    Raw,
}

impl Visibility {
    /// Visibility for a running transaction.
    pub fn for_txn(txn: &crate::Txn) -> Visibility {
        Visibility::Snapshot { snapshot: txn.snapshot().clone(), own: txn.xid() }
    }
}

/// Decide whether a tuple stamped (`tmin`, `tmax`) is visible under `vis`.
///
/// `tmin` is the inserting transaction; `tmax` is the deleting/superseding
/// transaction or [`Xid::INVALID`] if the tuple is live.
pub fn tuple_visible(tmin: Xid, tmax: Xid, vis: &Visibility, tm: &TxnManager) -> bool {
    match vis {
        Visibility::Raw => true,
        Visibility::Snapshot { snapshot, own } => {
            let inserted = if tmin == *own {
                true // own writes visible to self
            } else {
                tm.status(tmin) == TxnStatus::Committed && !snapshot.considers_running(tmin)
            };
            if !inserted {
                return false;
            }
            let deleted = if !tmax.is_valid() {
                false
            } else if tmax == *own {
                true // own deletes hidden from self
            } else {
                tm.status(tmax) == TxnStatus::Committed && !snapshot.considers_running(tmax)
            };
            !deleted
        }
        Visibility::AsOf(ts) => {
            let inserted = matches!(tm.commit_ts(tmin), Some(cts) if cts <= *ts);
            if !inserted {
                return false;
            }
            let deleted = tmax.is_valid() && matches!(tm.commit_ts(tmax), Some(cts) if cts <= *ts);
            !deleted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tm() -> Arc<TxnManager> {
        Arc::new(TxnManager::recovered(Vec::new(), Xid::FIRST_NORMAL))
    }

    #[test]
    fn own_writes_visible_own_deletes_hidden() {
        let tm = tm();
        let t = tm.begin();
        let vis = Visibility::for_txn(&t);
        assert!(tuple_visible(t.xid(), Xid::INVALID, &vis, &tm));
        assert!(!tuple_visible(t.xid(), t.xid(), &vis, &tm));
        t.abort();
    }

    #[test]
    fn committed_insert_visible_to_later_snapshot() {
        let tm = tm();
        let writer = tm.begin();
        let wx = writer.xid();
        writer.commit();
        let reader = tm.begin();
        let vis = Visibility::for_txn(&reader);
        assert!(tuple_visible(wx, Xid::INVALID, &vis, &tm));
        reader.commit();
    }

    #[test]
    fn uncommitted_and_aborted_inserts_invisible() {
        let tm = tm();
        let writer = tm.begin();
        let wx = writer.xid();
        let reader = tm.begin();
        let vis = Visibility::for_txn(&reader);
        assert!(!tuple_visible(wx, Xid::INVALID, &vis, &tm), "in-progress insert");
        writer.abort();
        assert!(!tuple_visible(wx, Xid::INVALID, &vis, &tm), "aborted insert");
        reader.commit();
    }

    #[test]
    fn snapshot_isolation_hides_later_commits() {
        let tm = tm();
        let reader = tm.begin(); // snapshot taken now
        let writer = tm.begin();
        let wx = writer.xid();
        writer.commit(); // commits after reader's snapshot
        let vis = Visibility::for_txn(&reader);
        assert!(
            !tuple_visible(wx, Xid::INVALID, &vis, &tm),
            "commit after snapshot must stay invisible"
        );
        reader.commit();
    }

    #[test]
    fn delete_by_concurrent_txn_not_seen() {
        let tm = tm();
        let inserter = tm.begin();
        let ix = inserter.xid();
        inserter.commit();
        let reader = tm.begin(); // snapshot now
        let deleter = tm.begin();
        let dx = deleter.xid();
        deleter.commit(); // delete commits after reader's snapshot
        let vis = Visibility::for_txn(&reader);
        assert!(
            tuple_visible(ix, dx, &vis, &tm),
            "tuple deleted after my snapshot is still mine to see"
        );
        reader.commit();
    }

    #[test]
    fn time_travel_sees_history() {
        let tm = tm();
        let t1 = tm.begin();
        let x1 = t1.xid();
        let ts1 = t1.commit(); // inserts v1
        let t2 = tm.begin();
        let x2 = t2.xid();
        let ts2 = t2.commit(); // deletes v1 (stamps tmax = x2)

        // As of ts1 (after insert, before delete): visible.
        assert!(tuple_visible(x1, x2, &Visibility::AsOf(ts1), &tm));
        // As of ts2 (after delete): gone.
        assert!(!tuple_visible(x1, x2, &Visibility::AsOf(ts2), &tm));
        // Before the insert: not yet there.
        assert!(!tuple_visible(x1, x2, &Visibility::AsOf(ts1 - 1), &tm));
    }

    #[test]
    fn time_travel_ignores_aborted() {
        let tm = tm();
        let t1 = tm.begin();
        let x1 = t1.xid();
        t1.abort();
        assert!(!tuple_visible(x1, Xid::INVALID, &Visibility::AsOf(u64::MAX), &tm));
        // Aborted delete leaves the tuple alive forever.
        let t2 = tm.begin();
        let x2 = t2.xid();
        let ts2 = t2.commit();
        let t3 = tm.begin();
        let x3 = t3.xid();
        t3.abort();
        assert!(tuple_visible(x2, x3, &Visibility::AsOf(ts2), &tm));
    }

    #[test]
    fn raw_sees_everything() {
        let tm = tm();
        let t = tm.begin();
        let x = t.xid();
        t.abort();
        assert!(tuple_visible(x, x, &Visibility::Raw, &tm));
    }

    #[test]
    fn bootstrap_rows_always_visible() {
        let tm = tm();
        let t = tm.begin();
        let vis = Visibility::for_txn(&t);
        assert!(tuple_visible(Xid::BOOTSTRAP, Xid::INVALID, &vis, &tm));
        assert!(tuple_visible(Xid::BOOTSTRAP, Xid::INVALID, &Visibility::AsOf(0), &tm));
        t.commit();
    }
}
