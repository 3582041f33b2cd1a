//! A positioned large-object cursor that owns no transaction borrow —
//! handle sharing across a server boundary.
//!
//! [`LoHandle`](crate::LoHandle) borrows its transaction (`&'a Txn`), which is exactly right
//! in-process but impossible to hold across wire requests: a server session
//! owns its transaction and must keep per-descriptor state (object, mode,
//! seek pointer) between frames. [`LoCursor`] is that state, and each
//! operation is handed the session's transaction (or none, for an `AsOf`
//! cursor) back in.
//!
//! A cursor opens its object once per transaction and holds the open
//! backend — metadata, size, relations, visibility — between operations.
//! It records the XID it was opened under and the catalog version at the
//! open ([`Catalog::version`](pglo_heap::Catalog::version)); an operation
//! reuses the backend only while both still match, and otherwise re-opens
//! through the same permission check. A new transaction changes the XID;
//! a size-growing or v-segment write, a create or an unlink changes the
//! version. Another session's in-place writes need no check: the snapshot
//! cannot see them. Every operation ends with the backend's flush and
//! forgets the bytes it read, so no write is pending and no object byte is
//! kept between operations; one that fails drops the backend.

use crate::handle::{flush_before_drop, LoBackend, OpenMode};
use crate::store::{LoStore, View};
use crate::{LoError, LoId, Result, UserId};
use pglo_txn::{Txn, Xid};
use std::cell::Cell;
use std::io::SeekFrom;

/// Positioned, transaction-free large-object descriptor state. A cursor
/// belongs to the one [`LoStore`] its operations are handed.
pub struct LoCursor {
    id: LoId,
    mode: OpenMode,
    user: UserId,
    pos: u64,
    /// `Some(ts)` for a time-travel cursor (always read-only).
    as_of: Option<u64>,
    /// The open this cursor holds between operations, if any; taken out
    /// for the length of one.
    held: Cell<Option<Held>>,
}

/// An open backend and what it was opened under.
struct Held {
    backend: Box<dyn LoBackend>,
    /// The transaction's XID; `None` for a time-travel cursor.
    xid: Option<Xid>,
    /// The catalog version read before the open.
    catalog: u64,
}

impl LoCursor {
    /// A cursor over `id` in the given mode, acting as `user`. It opens
    /// the object at its first operation.
    pub fn new(id: LoId, mode: OpenMode, user: UserId) -> Self {
        Self { id, mode, user, pos: 0, as_of: None, held: Cell::new(None) }
    }

    /// A time-travel cursor: the object exactly as of commit timestamp
    /// `ts`. Read-only.
    pub fn as_of(id: LoId, ts: u64) -> Self {
        Self { as_of: Some(ts), ..Self::new(id, OpenMode::ReadOnly, UserId::DBA) }
    }

    /// [`LoCursor::new`], opened now under `txn`: a bad id or a refused
    /// mode fails here, and the cursor keeps the open for `txn`.
    pub fn open(
        store: &LoStore,
        txn: &Txn,
        id: LoId,
        mode: OpenMode,
        user: UserId,
    ) -> Result<Self> {
        let cur = Self::new(id, mode, user);
        cur.with_backend(store, Some(txn), |_| Ok(()))?;
        Ok(cur)
    }

    /// [`LoCursor::as_of`], opened now.
    pub fn open_as_of(store: &LoStore, id: LoId, ts: u64) -> Result<Self> {
        let cur = Self::as_of(id, ts);
        cur.with_backend(store, None, |_| Ok(()))?;
        Ok(cur)
    }

    /// The seek pointer.
    pub fn tell(&self) -> u64 {
        self.pos
    }

    /// Run `f` against the held backend, re-opening it first unless it was
    /// opened under this transaction at the current catalog version, then
    /// flush it and forget the bytes it read. Time-travel cursors need no
    /// transaction; snapshot cursors require one. On an error the backend
    /// is flushed best-effort and dropped.
    fn with_backend<R>(
        &self,
        store: &LoStore,
        txn: Option<&Txn>,
        f: impl FnOnce(&mut dyn LoBackend) -> Result<R>,
    ) -> Result<R> {
        let (view, txn) = match (self.as_of, txn) {
            (Some(ts), _) => (View::AsOf(ts), None),
            (None, Some(txn)) => (View::Txn(txn), Some(txn)),
            (None, None) => {
                return Err(LoError::Unsupported("cursor operation outside a transaction"))
            }
        };
        let (xid, catalog) = (txn.map(Txn::xid), store.env().catalog().version());
        let mut h = match self.held.take() {
            Some(h) if (h.xid, h.catalog) == (xid, catalog) => h,
            stale => {
                drop(stale);
                let backend = store.open_backend(self.id, view, self.mode, self.user)?;
                Held { backend, xid, catalog }
            }
        };
        let out = f(h.backend.as_mut()).and_then(|r| h.backend.flush(txn).map(|()| r));
        if out.is_ok() {
            h.backend.forget_bytes();
            self.held.set(Some(h));
        } else {
            flush_before_drop(h.backend.as_mut(), txn);
        }
        out
    }

    /// Read up to `buf.len()` bytes at the seek pointer, advancing it.
    pub fn read(&mut self, store: &LoStore, txn: Option<&Txn>, buf: &mut [u8]) -> Result<usize> {
        let n = self.read_at(store, txn, self.pos, buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    /// Read at an explicit offset without moving the seek pointer.
    pub fn read_at(
        &self,
        store: &LoStore,
        txn: Option<&Txn>,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        self.with_backend(store, txn, |b| b.read_at(offset, buf))
    }

    /// Write all of `data` at the seek pointer, advancing it.
    pub fn write(&mut self, store: &LoStore, txn: Option<&Txn>, data: &[u8]) -> Result<()> {
        self.write_at(store, txn, self.pos, data)?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Write at an explicit offset without moving the seek pointer.
    pub fn write_at(
        &self,
        store: &LoStore,
        txn: Option<&Txn>,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        if self.mode == OpenMode::ReadOnly {
            return Err(LoError::ReadOnly);
        }
        // A writable cursor is a snapshot cursor: `with_backend` has
        // checked that `txn` is there.
        self.with_backend(store, txn, |b| b.write_at(txn.ok_or(LoError::ReadOnly)?, offset, data))
    }

    /// Logical object size under this cursor's visibility.
    pub fn size(&self, store: &LoStore, txn: Option<&Txn>) -> Result<u64> {
        self.with_backend(store, txn, |b| b.size())
    }

    /// Move the seek pointer; seeking past the end is allowed (sparse
    /// semantics, matching [`LoHandle::seek`](crate::LoHandle::seek)).
    pub fn seek(&mut self, store: &LoStore, txn: Option<&Txn>, from: SeekFrom) -> Result<u64> {
        let new = match from {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
            SeekFrom::End(d) => self.size(store, txn)? as i128 + d as i128,
        };
        if new < 0 {
            return Err(LoError::Unsupported("seek before start of object"));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }
}

impl std::fmt::Debug for LoCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoCursor")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("pos", &self.pos)
            .field("as_of", &self.as_of)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LoSpec;
    use pglo_heap::{HeapError, StorageEnv};
    use std::sync::Arc;

    fn setup() -> (tempfile::TempDir, Arc<StorageEnv>, LoStore) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        (dir, env, store)
    }

    /// The two kinds a cursor holds relations and metadata for.
    fn chunked_kinds() -> [LoSpec; 2] {
        [LoSpec::fchunk(), LoSpec::vsegment(pglo_compress::CodecKind::None)]
    }

    /// Also: two descriptors of one object in one transaction, each
    /// holding its open, see each other's in-place overwrite and extend.
    #[test]
    fn cursor_read_write_seek_across_reopens() {
        let (_d, env, store) = setup();
        for spec in chunked_kinds() {
            let txn = env.begin();
            let t = Some(&txn);
            let id = store.create(&txn, &spec).unwrap();
            let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);

            cur.write(&store, t, b"hello large world").unwrap();
            assert_eq!(cur.tell(), 17);
            cur.seek(&store, t, SeekFrom::Start(6)).unwrap();
            let mut buf = [0u8; 5];
            assert_eq!(cur.read(&store, t, &mut buf).unwrap(), 5);
            assert_eq!(&buf, b"large");
            cur.seek(&store, t, SeekFrom::End(-5)).unwrap();
            assert_eq!(cur.read(&store, t, &mut buf).unwrap(), 5);
            assert_eq!(&buf, b"world");
            assert_eq!(cur.size(&store, t).unwrap(), 17);

            let other = LoCursor::open(&store, &txn, id, OpenMode::ReadOnly, UserId::DBA).unwrap();
            assert_eq!(other.read_at(&store, t, 6, &mut buf).unwrap(), 5);
            assert_eq!(&buf, b"large");
            cur.write_at(&store, t, 6, b"LARGE").unwrap();
            assert_eq!(other.read_at(&store, t, 6, &mut buf).unwrap(), 5);
            assert_eq!(&buf, b"LARGE", "{:?}: an in-place overwrite", spec.kind);
            cur.write_at(&store, t, 17, b"!!").unwrap();
            let mut other = other;
            assert_eq!(other.size(&store, t).unwrap(), 19, "{:?}: an extend", spec.kind);
            assert_eq!(other.seek(&store, t, SeekFrom::End(-4)).unwrap(), 15);
            assert_eq!(other.read(&store, t, &mut buf).unwrap(), 4);
            assert_eq!(&buf[..4], b"ld!!");
            txn.commit();
        }
    }

    /// A cursor holds at most one backend, which holds an `Arc` of the
    /// environment (and for f-chunk an 8 KB chunk cache): a leaked or
    /// duplicated backend shows as one more strong reference, and
    /// dropping the cursor must free the one it holds.
    #[test]
    fn cursor_ops_release_their_backend() {
        let (_d, env, store) = setup();
        let txn = env.begin();
        for spec in chunked_kinds() {
            let id = store.create(&txn, &spec).unwrap();
            let before = Arc::strong_count(&env);
            let cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);
            // Sized up front, so the loop's writes land in place.
            cur.write_at(&store, Some(&txn), 0, &[0xEE; 64_000]).unwrap();
            let held = Arc::strong_count(&env);
            let mut buf = [0u8; 64];
            for i in 0..1000u64 {
                // Every tenth op writes: v-segment keeps each overwrite as
                // a segment, so a thousand of them would dominate the test.
                let mut fill = 0xEE;
                if i % 10 == 0 {
                    fill = i as u8;
                    cur.write_at(&store, Some(&txn), i * 64, &[fill; 64]).unwrap();
                }
                assert_eq!(cur.read_at(&store, Some(&txn), i * 64, &mut buf).unwrap(), 64);
                assert_eq!(buf, [fill; 64]);
                assert_eq!(Arc::strong_count(&env), held, "{:?}: one backend", spec.kind);
            }
            assert_eq!(cur.size(&store, Some(&txn)).unwrap(), 64_000);
            drop(cur);
            assert_eq!(Arc::strong_count(&env), before, "{:?}: backend not freed", spec.kind);
        }
        txn.commit();
    }

    #[test]
    fn cursor_requires_txn_unless_time_travel() {
        let (_d, env, store) = setup();
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);
        cur.write(&store, Some(&txn), b"v1").unwrap();
        let ts = txn.commit();

        let mut buf = [0u8; 2];
        assert!(matches!(cur.read_at(&store, None, 0, &mut buf), Err(LoError::Unsupported(_))));

        // Time travel works with no transaction at all.
        let tt = LoCursor::as_of(id, ts);
        assert_eq!(tt.read_at(&store, None, 0, &mut buf).unwrap(), 2);
        assert_eq!(&buf, b"v1");

        // And a time-travel cursor refuses writes.
        let mut tt = tt;
        assert!(matches!(tt.write(&store, None, b"xx"), Err(LoError::ReadOnly)));
    }

    /// Also: a descriptor used across commits re-binds to each
    /// transaction's snapshot, and an as-of descriptor stays byte-exact
    /// across transactions and catalog changes.
    #[test]
    fn cursor_time_travel_pins_old_version() {
        let (_d, env, store) = setup();
        for spec in chunked_kinds() {
            let t1 = env.begin();
            let id = store.create(&t1, &spec).unwrap();
            let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);
            cur.write(&store, Some(&t1), b"old").unwrap();
            let ts1 = t1.commit();

            let old = LoCursor::open_as_of(&store, id, ts1).unwrap();
            let live = LoCursor::new(id, OpenMode::ReadOnly, UserId::DBA);
            let mut buf = [0u8; 3];
            let reader = env.begin();
            live.read_at(&store, Some(&reader), 0, &mut buf).unwrap();
            assert_eq!(&buf, b"old");

            // Another session commits an overwrite while `live` is open.
            let t2 = env.begin();
            cur.write_at(&store, Some(&t2), 0, b"NEW").unwrap();
            t2.commit();
            live.read_at(&store, Some(&reader), 0, &mut buf).unwrap();
            assert_eq!(&buf, b"old", "{:?}: a snapshot misses a later commit", spec.kind);
            reader.commit();

            let now = env.begin();
            live.read_at(&store, Some(&now), 0, &mut buf).unwrap();
            assert_eq!(&buf, b"NEW", "{:?}: the next transaction sees it", spec.kind);
            store.create(&now, &spec).unwrap();
            cur.write_at(&store, Some(&now), 3, b" and more").unwrap();
            now.commit();

            for _ in 0..2 {
                let t = env.begin();
                assert_eq!(old.size(&store, Some(&t)).unwrap(), 3, "{:?}", spec.kind);
                old.read_at(&store, Some(&t), 0, &mut buf).unwrap();
                assert_eq!(&buf, b"old", "{:?}: as of its commit", spec.kind);
                t.commit();
            }
        }
    }

    /// A descriptor held across an aborted extend sees the old size in
    /// the next transaction; one held across another session's unlink
    /// gets `NotFound`, never bytes.
    #[test]
    fn held_descriptor_sees_aborted_extend_and_unlink() {
        let (_d, env, store) = setup();
        for spec in chunked_kinds() {
            let t1 = env.begin();
            let id = store.create(&t1, &spec).unwrap();
            let mut cur =
                LoCursor::open(&store, &t1, id, OpenMode::ReadWrite, UserId::DBA).unwrap();
            cur.write(&store, Some(&t1), &[7; 100]).unwrap();
            let ts = t1.commit();
            let old = LoCursor::open_as_of(&store, id, ts).unwrap();

            let t2 = env.begin();
            cur.write(&store, Some(&t2), &[8; 50]).unwrap();
            assert_eq!(cur.size(&store, Some(&t2)).unwrap(), 150);
            t2.abort();

            let t3 = env.begin();
            let t = Some(&t3);
            let mut buf = [0u8; 100];
            assert_eq!(cur.size(&store, t).unwrap(), 100, "{:?}: aborted extend", spec.kind);
            assert_eq!(cur.read_at(&store, t, 100, &mut buf).unwrap(), 0);
            assert_eq!(cur.read_at(&store, t, 0, &mut buf).unwrap(), 100);
            assert_eq!(buf, [7; 100]);
            assert_eq!(old.read_at(&store, t, 0, &mut buf).unwrap(), 100);

            store.unlink(id).unwrap();
            let gone = |r: Result<usize>| matches!(r, Err(LoError::NotFound(lo)) if lo == id);
            assert!(gone(cur.read_at(&store, t, 0, &mut buf)), "{:?}: read", spec.kind);
            assert!(gone(cur.size(&store, t).map(|n| n as usize)), "{:?}: size", spec.kind);
            assert!(gone(cur.write_at(&store, t, 0, b"x").map(|()| 0)), "{:?}: write", spec.kind);
            assert!(gone(old.read_at(&store, t, 0, &mut buf)), "{:?}: as of", spec.kind);
            t3.commit();
        }
    }

    /// A write that fails partway (here: a write conflict with another
    /// session's uncommitted update of the same chunk) drops the
    /// descriptor's open: its next operation answers as a fresh open
    /// does, and the next transaction reads the committed bytes.
    #[test]
    fn held_descriptor_reopens_after_a_failed_write() {
        let (_d, env, store) = setup();
        // The object ends inside its second chunk, so the two writers'
        // bytes (and a v-segment's appended ones) share a stored chunk.
        let n = 2 * crate::CHUNK_SIZE as u64 - 100;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        for spec in chunked_kinds() {
            let t1 = env.begin();
            let id = store.create(&t1, &spec).unwrap();
            LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA)
                .write_at(&store, Some(&t1), 0, &data)
                .unwrap();
            t1.commit();

            let (a, c) = (env.begin(), env.begin());
            let cur = LoCursor::open(&store, &a, id, OpenMode::ReadWrite, UserId::DBA).unwrap();
            LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA)
                .write_at(&store, Some(&c), n - 10, &[0xC; 10])
                .unwrap();
            let err = cur.write_at(&store, Some(&a), n - 10, &[0xA; 30]);
            assert!(
                matches!(err, Err(LoError::Heap(HeapError::WriteConflict { .. }))),
                "{:?}: {err:?}",
                spec.kind
            );

            let read = |cur: &LoCursor| {
                let mut buf = vec![0u8; 60];
                let r = cur.read_at(&store, Some(&a), n - 40, &mut buf);
                format!("{:?}", r.map(|k| buf[..k].to_vec()))
            };
            let fresh = LoCursor::new(id, OpenMode::ReadOnly, UserId::DBA);
            let size = |cur: &LoCursor| cur.size(&store, Some(&a)).unwrap();
            assert_eq!(size(&cur), size(&fresh), "{:?}: size after the failure", spec.kind);
            assert_eq!(read(&cur), read(&fresh), "{:?}: bytes after the failure", spec.kind);
            drop((c, a));

            let b = env.begin();
            let mut buf = vec![0u8; n as usize + 1];
            assert_eq!(cur.size(&store, Some(&b)).unwrap(), n, "{:?}", spec.kind);
            assert_eq!(cur.read_at(&store, Some(&b), 0, &mut buf).unwrap(), n as usize);
            assert!(buf[..n as usize] == data[..], "{:?}: committed bytes", spec.kind);
            b.commit();
        }
    }
}
