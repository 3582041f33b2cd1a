//! The transaction manager: XID allocation, outcome table, snapshots.

use crate::horizon::VisibleTs;
use crate::Xid;
use parking_lot::{ranks, Mutex};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A logical commit timestamp. Strictly increasing across commits; the
/// time-travel axis ("as of T" reads see exactly the transactions with
/// `commit_ts <= T`).
pub type CommitTs = u64;

/// Outcome state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// InProgress.
    InProgress,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

struct TmInner {
    next_xid: u32,
    /// The outcome table: commit timestamp per XID, indexed by XID and
    /// `next_xid` long; 0 = not committed (in progress when the XID is in
    /// `active`, aborted otherwise).
    commit_ts: Vec<CommitTs>,
    /// Currently in-progress XIDs (for snapshot construction).
    active: BTreeSet<u32>,
    /// Commit timestamps allocated but not yet resolved: the owning
    /// transaction is inside the durability hook (or about to flip its
    /// status). `visible_ts` may never reach a pending timestamp —
    /// otherwise an `AsOf(current_timestamp())` reader would get
    /// different answers before and after the in-flight commit lands.
    pending_ts: BTreeSet<CommitTs>,
}

/// Storage-layer hook that makes transaction state durable; the manager
/// itself does no I/O. Installed once by the storage environment; a
/// manager without one keeps its outcomes in memory only.
pub trait DurabilityHook: Send + Sync {
    /// Every XID below `next` may now stamp tuples. Called by `begin`
    /// under the manager lock, before the new XID is handed out, so the
    /// log can record an XID limit ahead of any page that names one.
    fn note_next_xid(&self, next: Xid);

    /// Make `(xid, ts)` durable (redo-log the dirty page images, append
    /// a commit record, force the log). An error aborts the commit.
    ///
    /// Called with no transaction-manager locks held, after the commit
    /// timestamp is allocated but before the in-memory status flips, so
    /// concurrent snapshots still see the transaction in progress while
    /// the log is forced.
    fn prepare_commit(&self, xid: Xid, ts: CommitTs) -> std::io::Result<()>;
}

/// The transaction manager. One per database instance; cheaply shared via
/// `Arc`.
pub struct TxnManager {
    inner: Mutex<TmInner>,
    next_ts: AtomicU64,
    /// Highest timestamp T such that every commit with `ts <= T` has
    /// already flipped to `Committed`. Strictly trails `next_ts - 1`
    /// while a commit is inside the durability hook, so
    /// [`TxnManager::current_timestamp`] is always repeatable: a
    /// timestamp is published only once nothing below it can still
    /// appear. Advanced under the inner lock, read lock-free; the
    /// publication protocol lives in [`crate::horizon::VisibleTs`] on
    /// the model-checkable facade.
    visible_ts: VisibleTs,
    durability: std::sync::OnceLock<Arc<dyn DurabilityHook>>,
    /// Commits since creation (ablation benchmarks read this).
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl TxnManager {
    /// A manager resuming from recovered state (a fresh one from an
    /// empty table): `commit_ts` is the outcome table (indexed by XID,
    /// 0 = not committed) and `next_xid` the first XID no earlier process
    /// can have handed out. Allocation starts at `next_xid` or past the
    /// table, whichever is later; the time-travel axis resumes past the
    /// highest recovered commit timestamp.
    pub fn recovered(mut commit_ts: Vec<CommitTs>, next_xid: Xid) -> Self {
        let next_xid = next_xid.max(Xid::FIRST_NORMAL).0.max(commit_ts.len() as u32);
        commit_ts.resize(next_xid as usize, 0);
        let max_ts = commit_ts.iter().copied().max().unwrap_or(0);
        Self {
            inner: Mutex::with_rank(
                TmInner {
                    next_xid,
                    commit_ts,
                    active: BTreeSet::new(),
                    pending_ts: BTreeSet::new(),
                },
                ranks::TXN_MANAGER,
            ),
            next_ts: AtomicU64::new(max_ts + 1),
            visible_ts: VisibleTs::new(max_ts),
            durability: std::sync::OnceLock::new(),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// Install the commit-durability hook (first install wins). Returns
    /// whether this call installed it.
    pub fn set_durability_hook(&self, hook: Arc<dyn DurabilityHook>) -> bool {
        self.durability.set(hook).is_ok()
    }

    /// Begin a transaction, returning an RAII handle that aborts on drop
    /// unless committed.
    pub fn begin(self: &Arc<Self>) -> Txn {
        let (xid, snapshot) = {
            let mut inner = self.inner.lock();
            let xid = Xid(inner.next_xid);
            inner.next_xid += 1;
            inner.commit_ts.push(0);
            inner.active.insert(xid.0);
            if let Some(hook) = self.durability.get() {
                hook.note_next_xid(Xid(inner.next_xid));
            }
            let snapshot = Snapshot {
                xmax: Xid(inner.next_xid),
                active: inner.active.iter().map(|&x| Xid(x)).collect(),
            };
            (xid, snapshot)
        };
        Txn { tm: Arc::clone(self), xid, snapshot, extensions: Cell::new(0), done: false }
    }

    /// Status of a transaction. `BOOTSTRAP` is always committed.
    pub fn status(&self, xid: Xid) -> TxnStatus {
        if xid == Xid::BOOTSTRAP {
            return TxnStatus::Committed;
        }
        let inner = self.inner.lock();
        match inner.commit_ts.get(xid.0 as usize) {
            Some(&ts) if ts != 0 => TxnStatus::Committed,
            Some(_) if inner.active.contains(&xid.0) => TxnStatus::InProgress,
            _ => TxnStatus::Aborted, // unknown XIDs read as never-committed
        }
    }

    /// Commit timestamp of a committed transaction, `None` otherwise.
    /// `BOOTSTRAP` committed at timestamp 0.
    pub fn commit_ts(&self, xid: Xid) -> Option<CommitTs> {
        if xid == Xid::BOOTSTRAP {
            return Some(0);
        }
        let inner = self.inner.lock();
        let ts = *inner.commit_ts.get(xid.0 as usize)?;
        (ts != 0).then_some(ts)
    }

    /// For a checkpoint: which of `xids` have a final outcome (committed
    /// or aborted, no longer in progress), ascending, and the outcome
    /// table from the lowest of them to the highest (0 = not committed),
    /// read under one lock. Every XID the second list covers whose
    /// outcome is not final reads 0 there.
    pub fn settled(&self, xids: &[u64]) -> (Vec<u64>, Vec<CommitTs>) {
        let inner = self.inner.lock();
        let mut done: Vec<u64> =
            xids.iter().copied().filter(|&x| !inner.active.contains(&(x as u32))).collect();
        done.sort_unstable();
        let span = done.first().zip(done.last()).map(|(&lo, &hi)| lo..=hi);
        let table = span.into_iter().flatten().map(|x| inner.commit_ts.get(x as usize).copied());
        (done, table.map(|ts| ts.unwrap_or(0)).collect())
    }

    fn finish_abort(&self, xid: Xid) {
        let mut inner = self.inner.lock();
        assert!(inner.active.remove(&xid.0), "{xid} already finished");
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Recompute `visible_ts` under the inner lock: the timestamp just
    /// below the oldest still-pending commit, or the last one allocated
    /// when nothing is pending. Monotone because both the pending
    /// minimum and `next_ts` only grow between serialized calls.
    fn publish_visible(&self, inner: &TmInner) {
        let vis = match inner.pending_ts.first() {
            Some(&oldest) => oldest - 1,
            None => self.next_ts.load(Ordering::Relaxed) - 1,
        };
        self.visible_ts.publish(vis);
    }

    /// Commit `xid`: allocate a timestamp (registered as *pending* under
    /// the lock, so the visible horizon cannot pass it), force durability
    /// through the installed hook (with no manager locks held — the hook
    /// does log I/O), then flip the in-memory outcome and resolve the
    /// pending entry. A hook failure aborts the transaction, releases
    /// the pending timestamp, and surfaces the error.
    fn finish_commit(&self, xid: Xid) -> std::io::Result<CommitTs> {
        let ts = {
            let mut inner = self.inner.lock();
            // Allocate-and-register atomically: a later committer taking
            // this lock sees the timestamp as pending before it can
            // compute a visible horizon past it.
            let ts = self.next_ts.fetch_add(1, Ordering::Relaxed);
            inner.pending_ts.insert(ts);
            ts
        };
        if let Some(hook) = self.durability.get() {
            if let Err(e) = hook.prepare_commit(xid, ts) {
                {
                    let mut inner = self.inner.lock();
                    inner.pending_ts.remove(&ts);
                    self.publish_visible(&inner);
                }
                self.finish_abort(xid);
                return Err(e);
            }
        }
        let mut inner = self.inner.lock();
        assert!(inner.active.remove(&xid.0), "{xid} already finished");
        inner.commit_ts[xid.0 as usize] = ts;
        inner.pending_ts.remove(&ts);
        self.publish_visible(&inner);
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(ts)
    }

    /// The timestamp an "as of now" read should use: the highest
    /// timestamp whose every commit at or below it has fully landed.
    /// `AsOf(current_timestamp())` is *repeatable*: the answer at this
    /// timestamp never changes, because a timestamp is published only
    /// once no in-flight commit below it remains. A commit still inside
    /// the durability hook (or ordered after one that is) is not yet
    /// visible here — its own `commit()` return value is the first
    /// moment it is.
    pub fn current_timestamp(&self) -> CommitTs {
        self.visible_ts.current()
    }

    /// `(commits, aborts)` since creation.
    pub fn counters(&self) -> (u64, u64) {
        (self.commits.load(Ordering::Relaxed), self.aborts.load(Ordering::Relaxed))
    }

    /// Number of in-progress transactions. A server reports this so
    /// operators can see session-owned transactions that are still open
    /// (e.g. a client that began and went quiet).
    pub fn active_count(&self) -> usize {
        self.inner.lock().active.len()
    }
}

/// An MVCC snapshot: which transactions a reader considers finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// First XID *not* visible (everything at or after this was started
    /// after the snapshot was taken).
    pub xmax: Xid,
    /// Transactions in progress when the snapshot was taken.
    pub active: Vec<Xid>,
}

impl Snapshot {
    /// Whether `xid` was in progress at snapshot time (or started later).
    pub fn considers_running(&self, xid: Xid) -> bool {
        xid >= self.xmax || self.active.binary_search(&xid).is_ok()
    }
}

/// An RAII transaction handle. Aborts on drop unless [`Txn::commit`] was
/// called. One thread uses it at a time: it is `Send`, not `Sync`.
pub struct Txn {
    tm: Arc<TxnManager>,
    xid: Xid,
    snapshot: Snapshot,
    /// How many of its flushes grew an object (see [`Txn::extensions`]).
    extensions: Cell<u64>,
    done: bool,
}

impl Txn {
    /// This transaction's XID (the `tmin`/`tmax` it stamps into tuples).
    pub fn xid(&self) -> Xid {
        self.xid
    }

    /// The snapshot taken at `begin`.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// How many of this transaction's large-object flushes grew an object
    /// (or a v-segment object's byte store). An open that derived a size
    /// under this transaction is current while the count stands still:
    /// only the transaction's own writes can move an end its snapshot
    /// sees.
    pub fn extensions(&self) -> u64 {
        self.extensions.get()
    }

    /// Count one flush that grew an object.
    pub fn note_extension(&self) {
        self.extensions.set(self.extensions.get() + 1);
    }

    /// Commit, returning the commit timestamp. Panics if the durability
    /// hook cannot force the log; callers that need to survive a log
    /// device failure use [`Txn::try_commit`].
    #[expect(clippy::expect_used, reason = "documented: the panicking twin of try_commit")]
    pub fn commit(self) -> CommitTs {
        self.try_commit().expect("commit durability failure")
    }

    /// Commit, surfacing a durability failure as an error (in which case
    /// the transaction has been aborted).
    pub fn try_commit(mut self) -> std::io::Result<CommitTs> {
        let _span = obs::span!("txn.commit");
        self.done = true;
        self.tm.finish_commit(self.xid)
    }

    /// Abort explicitly.
    pub fn abort(mut self) {
        let _span = obs::span!("txn.abort");
        self.done = true;
        self.tm.finish_abort(self.xid);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.done {
            self.tm.finish_abort(self.xid);
        }
    }
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn").field("xid", &self.xid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> Arc<TxnManager> {
        Arc::new(TxnManager::recovered(Vec::new(), Xid::FIRST_NORMAL))
    }

    #[test]
    fn begin_commit_lifecycle() {
        let tm = tm();
        let t = tm.begin();
        let xid = t.xid();
        assert_eq!(tm.status(xid), TxnStatus::InProgress);
        let ts = t.commit();
        assert_eq!(tm.status(xid), TxnStatus::Committed);
        assert_eq!(tm.commit_ts(xid), Some(ts));
        assert_eq!(tm.current_timestamp(), ts);
    }

    #[test]
    fn drop_aborts() {
        let tm = tm();
        let xid = {
            let t = tm.begin();
            t.xid()
        };
        assert_eq!(tm.status(xid), TxnStatus::Aborted);
        assert_eq!(tm.commit_ts(xid), None);
        assert_eq!(tm.counters(), (0, 1));
    }

    #[test]
    fn commit_timestamps_strictly_increase() {
        let tm = tm();
        let a = tm.begin().commit();
        let b = tm.begin().commit();
        let c = tm.begin().commit();
        assert!(a < b && b < c);
    }

    #[test]
    fn snapshot_sees_concurrent_as_running() {
        let tm = tm();
        let t1 = tm.begin();
        let t2 = tm.begin();
        // t2's snapshot was taken while t1 was active.
        assert!(t2.snapshot().considers_running(t1.xid()));
        let x1 = t1.xid();
        t1.commit();
        // Still "running" from t2's frozen point of view.
        assert!(t2.snapshot().considers_running(x1));
        // A later transaction that started after the snapshot:
        let t3 = tm.begin();
        assert!(t2.snapshot().considers_running(t3.xid()));
        t3.abort();
        t2.commit();
    }

    #[test]
    fn bootstrap_always_committed_at_zero() {
        let tm = tm();
        assert_eq!(tm.status(Xid::BOOTSTRAP), TxnStatus::Committed);
        assert_eq!(tm.commit_ts(Xid::BOOTSTRAP), Some(0));
        assert_eq!(tm.status(Xid::INVALID), TxnStatus::Aborted);
    }

    #[test]
    fn recovered_table_keeps_outcomes_and_never_reuses_xids() {
        // XID 2 committed at ts 5, XID 3 aborted (or never finished),
        // and a logged limit of 1024.
        let tm = Arc::new(TxnManager::recovered(vec![0, 0, 5, 0], Xid(1024)));
        assert_eq!(tm.status(Xid(2)), TxnStatus::Committed);
        assert_eq!(tm.commit_ts(Xid(2)), Some(5));
        assert_eq!(tm.status(Xid(3)), TxnStatus::Aborted);
        assert_eq!(tm.status(Xid(700)), TxnStatus::Aborted);
        // The time-travel axis keeps advancing rather than restarting.
        assert_eq!(tm.current_timestamp(), 5);
        // No XID below the limit is reallocated: an earlier process may
        // have stamped tuples with any of them.
        let t = tm.begin();
        assert_eq!(t.xid(), Xid(1024));
        assert!(t.commit() > 5);
        // A table longer than the limit pushes allocation past it.
        let tm = Arc::new(TxnManager::recovered(vec![0; 12], Xid(3)));
        assert_eq!(tm.begin().xid(), Xid(12));
        let tm = Arc::new(TxnManager::recovered(Vec::new(), Xid::INVALID));
        assert_eq!(tm.begin().xid(), Xid::FIRST_NORMAL);
    }

    #[test]
    fn settled_reports_final_outcomes_and_their_table_range() {
        let tm = tm();
        let (a, b, c) = (tm.begin(), tm.begin(), tm.begin());
        let (xa, xb, xc) = (a.xid(), b.xid(), c.xid());
        let ts = a.commit();
        c.abort();
        let ask = [xc, xb, xa].map(|x| u64::from(x.0));
        let (done, table) = tm.settled(&ask);
        assert_eq!(done, vec![u64::from(xa.0), u64::from(xc.0)]);
        // b is still in progress: it reads 0 and stays unsettled.
        assert_eq!(table, vec![ts, 0, 0]);
        b.commit();
        assert_eq!(tm.settled(&[u64::from(xb.0)]).0.len(), 1);
        assert_eq!(tm.settled(&[]), (Vec::new(), Vec::new()));
    }

    /// Records the XID high-water `begin` reports.
    struct HighWater(AtomicU64);

    impl DurabilityHook for HighWater {
        fn note_next_xid(&self, next: Xid) {
            self.0.store(u64::from(next.0), Ordering::Relaxed);
        }

        fn prepare_commit(&self, _xid: Xid, _ts: CommitTs) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn begin_reports_the_xid_high_water_before_handing_out_the_xid() {
        let tm = tm();
        let hook = Arc::new(HighWater(AtomicU64::new(0)));
        assert!(tm.set_durability_hook(Arc::clone(&hook) as Arc<dyn DurabilityHook>));
        let t = tm.begin();
        assert_eq!(hook.0.load(Ordering::Relaxed), u64::from(t.xid().0) + 1);
        let u = tm.begin();
        assert_eq!(hook.0.load(Ordering::Relaxed), u64::from(u.xid().0) + 1);
    }

    #[test]
    fn xids_unique_across_threads() {
        let tm = tm();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tm = Arc::clone(&tm);
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| tm.begin().commit()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "commit timestamps must be unique");
    }

    /// A durability hook that parks its *first* call until released,
    /// exposing the window where a commit timestamp is allocated but the
    /// commit has not yet landed. Later calls pass straight through.
    struct ParkingHook {
        entered: std::sync::mpsc::Sender<CommitTs>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        fail: bool,
        calls: AtomicU64,
    }

    impl DurabilityHook for ParkingHook {
        fn note_next_xid(&self, _next: Xid) {}

        fn prepare_commit(&self, _xid: Xid, ts: CommitTs) -> std::io::Result<()> {
            if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
                return Ok(());
            }
            self.entered.send(ts).unwrap();
            self.release.lock().recv().unwrap();
            if self.fail {
                Err(std::io::Error::other("injected hook failure"))
            } else {
                Ok(())
            }
        }
    }

    fn parking_hook(
        tm: &TxnManager,
        fail: bool,
    ) -> (std::sync::mpsc::Receiver<CommitTs>, std::sync::mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        assert!(tm.set_durability_hook(Arc::new(ParkingHook {
            entered: entered_tx,
            release: Mutex::with_rank(release_rx, ranks::ADT_TYPES),
            fail,
            calls: AtomicU64::new(0),
        })));
        (entered_rx, release_tx)
    }

    #[test]
    fn in_flight_commit_not_visible_at_current_timestamp() {
        let tm = tm();
        let before = tm.begin().commit();
        let (entered, release) = parking_hook(&tm, false);
        let committer = {
            let tm = Arc::clone(&tm);
            std::thread::spawn(move || tm.begin().commit())
        };
        let pending = entered.recv().unwrap();
        // The timestamp is allocated but still inside the hook: the
        // visible horizon must not have reached it, or an AsOf(now)
        // reader would see different data at the same timestamp before
        // and after the commit lands.
        assert_eq!(tm.current_timestamp(), before);
        assert!(pending > before);
        release.send(()).unwrap();
        let ts = committer.join().unwrap();
        assert_eq!(ts, pending);
        assert_eq!(tm.current_timestamp(), ts);
    }

    #[test]
    fn failed_hook_releases_pending_timestamp() {
        let tm = tm();
        let (entered, release) = parking_hook(&tm, true);
        let committer = {
            let tm = Arc::clone(&tm);
            std::thread::spawn(move || {
                let t = tm.begin();
                let xid = t.xid();
                (xid, t.try_commit())
            })
        };
        let pending = entered.recv().unwrap();
        release.send(()).unwrap();
        let (xid, res) = committer.join().unwrap();
        assert!(res.is_err(), "hook failure must abort the commit");
        assert_eq!(tm.status(xid), TxnStatus::Aborted);
        // The aborted timestamp no longer holds the horizon back: a
        // later commit becomes visible immediately.
        let ts = tm.begin().commit();
        assert!(ts > pending);
        assert_eq!(tm.current_timestamp(), ts);
    }
}
