//! The transaction manager: XID allocation, commit log, snapshots.

use crate::horizon::VisibleTs;
use crate::Xid;
use parking_lot::{ranks, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A logical commit timestamp. Strictly increasing across commits; the
/// time-travel axis ("as of T" reads see exactly the transactions with
/// `commit_ts <= T`).
pub type CommitTs = u64;

/// Outcome state of a transaction in the commit log.
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
    /// Status per XID, indexed by `xid - FIRST_NORMAL`.
    status: Vec<TxnStatus>,
    /// Commit timestamp per XID (0 = not committed), same indexing.
    commit_ts: Vec<CommitTs>,
    /// Currently in-progress XIDs (for snapshot construction).
    active: BTreeSet<u32>,
    /// Commit timestamps allocated but not yet resolved: the owning
    /// transaction is inside the durability hook (or about to flip its
    /// status). `visible_ts` may never reach a pending timestamp —
    /// otherwise an `AsOf(current_timestamp())` reader would get
    /// different answers before and after the in-flight commit lands.
    pending_ts: BTreeSet<CommitTs>,
    /// Durable commit log, appended under the inner lock: `B <xid>` when a
    /// transaction begins, `C <xid> <ts>` when it commits. Aborts write
    /// nothing — on replay, any begun-but-uncommitted XID reads as aborted,
    /// and logging begins keeps such XIDs from ever being reallocated (a
    /// reused XID would resurrect the aborted transaction's tuples).
    log: Option<std::fs::File>,
}

impl TmInner {
    fn append(&mut self, line: std::fmt::Arguments<'_>) {
        // "clog force time" in the paper's terms: how long the commit-log
        // append keeps the manager lock.
        let _span = obs::span!("txn.clog.append");
        if let Some(f) = &mut self.log {
            use std::io::Write;
            // Commit durability rides on the no-overwrite system's
            // force-at-commit page writes; the log itself only needs to
            // reach the OS before process exit, so no fsync here.
            writeln!(f, "{line}").expect("commit log append failed");
        }
    }
}

/// Storage-layer hook run on the commit path *before* the outcome becomes
/// visible: it must make the transaction durable (redo-log the dirty page
/// images, append a commit record, force the log). Installed once by the
/// storage environment; a manager without one falls back to the clog-only
/// durability contract (force-at-commit page writes by the caller).
pub trait DurabilityHook: Send + Sync {
    /// Make `(xid, ts)` durable. An error aborts the commit.
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

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// A fresh manager with an empty, in-memory commit log.
    pub fn new() -> Self {
        Self {
            inner: Mutex::with_rank(
                TmInner {
                    next_xid: Xid::FIRST_NORMAL.0,
                    status: Vec::new(),
                    commit_ts: Vec::new(),
                    active: BTreeSet::new(),
                    pending_ts: BTreeSet::new(),
                    log: None,
                },
                ranks::TXN_MANAGER,
            ),
            next_ts: AtomicU64::new(1),
            visible_ts: VisibleTs::new(0),
            durability: std::sync::OnceLock::new(),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// A manager whose commit log is durable at `path`: prior outcomes are
    /// replayed so tuples stamped by earlier processes keep their
    /// visibility, commit timestamps (the time-travel axis) keep
    /// advancing instead of restarting at 1, and no XID another process
    /// allocated is ever reused.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let path = path.as_ref();
        let mut next_xid = Xid::FIRST_NORMAL.0;
        let mut status = Vec::new();
        let mut commit_ts: Vec<CommitTs> = Vec::new();
        let mut max_ts: CommitTs = 0;
        let corrupt =
            |line: &str| Error::new(ErrorKind::InvalidData, format!("clog: bad line {line:?}"));
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    let mut parts = line.split_ascii_whitespace();
                    let (tag, xid) = match (parts.next(), parts.next()) {
                        (Some(tag), Some(x)) => (tag, x.parse::<u32>().map_err(|_| corrupt(line))?),
                        _ => return Err(corrupt(line)),
                    };
                    let i =
                        xid.checked_sub(Xid::FIRST_NORMAL.0).ok_or_else(|| corrupt(line))? as usize;
                    if i >= status.len() {
                        status.resize(i + 1, TxnStatus::Aborted);
                        commit_ts.resize(i + 1, 0);
                    }
                    next_xid = next_xid.max(xid + 1);
                    match tag {
                        "B" => {}
                        "C" => {
                            let ts = parts
                                .next()
                                .and_then(|t| t.parse::<CommitTs>().ok())
                                .ok_or_else(|| corrupt(line))?;
                            status[i] = TxnStatus::Committed;
                            commit_ts[i] = ts;
                            max_ts = max_ts.max(ts);
                        }
                        _ => return Err(corrupt(line)),
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let log = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            inner: Mutex::with_rank(
                TmInner {
                    next_xid,
                    status,
                    commit_ts,
                    active: BTreeSet::new(),
                    pending_ts: BTreeSet::new(),
                    log: Some(log),
                },
                ranks::TXN_MANAGER,
            ),
            next_ts: AtomicU64::new(max_ts + 1),
            visible_ts: VisibleTs::new(max_ts),
            durability: std::sync::OnceLock::new(),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        })
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
            inner.status.push(TxnStatus::InProgress);
            inner.commit_ts.push(0);
            inner.active.insert(xid.0);
            inner.append(format_args!("B {}", xid.0));
            let snapshot = Snapshot {
                xmax: Xid(inner.next_xid),
                active: inner.active.iter().map(|&x| Xid(x)).collect(),
            };
            (xid, snapshot)
        };
        Txn { tm: Arc::clone(self), xid, snapshot, done: false }
    }

    fn idx(xid: Xid) -> Option<usize> {
        xid.0.checked_sub(Xid::FIRST_NORMAL.0).map(|i| i as usize)
    }

    /// Status of a transaction. `BOOTSTRAP` is always committed.
    pub fn status(&self, xid: Xid) -> TxnStatus {
        if xid == Xid::BOOTSTRAP {
            return TxnStatus::Committed;
        }
        if xid == Xid::INVALID {
            return TxnStatus::Aborted;
        }
        let inner = self.inner.lock();
        match Self::idx(xid) {
            Some(i) if i < inner.status.len() => inner.status[i],
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
        let i = Self::idx(xid)?;
        if i < inner.status.len() && inner.status[i] == TxnStatus::Committed {
            Some(inner.commit_ts[i])
        } else {
            None
        }
    }

    fn finish_abort(&self, xid: Xid) {
        let mut inner = self.inner.lock();
        let i = Self::idx(xid).expect("finish of special xid");
        assert_eq!(inner.status[i], TxnStatus::InProgress, "{xid} already finished");
        inner.active.remove(&xid.0);
        inner.status[i] = TxnStatus::Aborted;
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
    /// does log I/O), then flip the in-memory status, resolve the pending
    /// entry, and append the clog line. A hook failure aborts the
    /// transaction, releases the pending timestamp, and surfaces the
    /// error.
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
        let i = Self::idx(xid).expect("finish of special xid");
        assert_eq!(inner.status[i], TxnStatus::InProgress, "{xid} already finished");
        inner.active.remove(&xid.0);
        inner.status[i] = TxnStatus::Committed;
        inner.commit_ts[i] = ts;
        inner.pending_ts.remove(&ts);
        self.publish_visible(&inner);
        inner.append(format_args!("C {} {}", xid.0, ts));
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(ts)
    }

    /// Recovery repair: the redo log holds a *flushed* commit record for
    /// `xid` at `ts`, but the clog may have lost the `C` line (crash
    /// between the log force and the clog append). Re-mark the
    /// transaction committed, re-append the missing clog line, and pull
    /// the XID/timestamp allocators past it.
    pub fn ensure_committed(&self, xid: Xid, ts: CommitTs) {
        let Some(i) = Self::idx(xid) else { return };
        let mut inner = self.inner.lock();
        if i >= inner.status.len() {
            inner.status.resize(i + 1, TxnStatus::Aborted);
            inner.commit_ts.resize(i + 1, 0);
        }
        inner.next_xid = inner.next_xid.max(xid.0 + 1);
        if inner.status[i] != TxnStatus::Committed {
            inner.active.remove(&xid.0);
            inner.status[i] = TxnStatus::Committed;
            inner.commit_ts[i] = ts;
            inner.append(format_args!("C {} {}", xid.0, ts));
        }
        drop(inner);
        self.next_ts.fetch_max(ts + 1, Ordering::Relaxed);
        self.visible_ts.publish(ts);
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
/// called.
pub struct Txn {
    tm: Arc<TxnManager>,
    xid: Xid,
    snapshot: Snapshot,
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

    /// Commit, returning the commit timestamp. Panics if the durability
    /// hook cannot force the log; callers that need to survive a log
    /// device failure use [`Txn::try_commit`].
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
        Arc::new(TxnManager::new())
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
    fn reopen_replays_outcomes_and_never_reuses_xids() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("clog");
        let (committed, committed_ts, aborted) = {
            let tm = Arc::new(TxnManager::open(&path).unwrap());
            let t1 = tm.begin();
            let x1 = t1.xid();
            let ts1 = t1.commit();
            let t2 = tm.begin();
            let x2 = t2.xid();
            t2.abort();
            (x1, ts1, x2)
        };
        let tm = Arc::new(TxnManager::open(&path).unwrap());
        assert_eq!(tm.status(committed), TxnStatus::Committed);
        assert_eq!(tm.commit_ts(committed), Some(committed_ts));
        assert_eq!(tm.status(aborted), TxnStatus::Aborted);
        assert_eq!(tm.commit_ts(aborted), None);
        // The time-travel axis keeps advancing rather than restarting.
        assert_eq!(tm.current_timestamp(), committed_ts);
        // Neither prior XID is reallocated, not even the aborted one — a
        // reused XID would resurrect the aborted transaction's tuples.
        let t3 = tm.begin();
        assert!(t3.xid() > aborted && t3.xid() > committed);
        let ts3 = t3.commit();
        assert!(ts3 > committed_ts);
    }

    #[test]
    fn open_missing_file_starts_fresh() {
        let dir = tempfile::tempdir().unwrap();
        let tm = Arc::new(TxnManager::open(dir.path().join("clog")).unwrap());
        assert_eq!(tm.current_timestamp(), 0);
        let t = tm.begin();
        assert_eq!(t.xid(), Xid::FIRST_NORMAL);
        t.commit();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("clog");
        std::fs::write(&path, "B 2\nnonsense\n").unwrap();
        let err = TxnManager::open(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
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
