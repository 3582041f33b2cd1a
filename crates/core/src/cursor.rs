//! A positioned large-object cursor that owns no transaction borrow —
//! handle sharing across a server boundary.
//!
//! [`LoHandle`](crate::LoHandle) borrows its transaction (`&'a Txn`), which is exactly right
//! in-process but impossible to hold across wire requests: a server session
//! owns its transaction and must keep per-descriptor state (object, mode,
//! seek pointer) between frames. [`LoCursor`] is that state. It re-resolves
//! the object through [`LoStore`] on every operation, passing the session's
//! transaction back in, so it composes with MVCC visibility and time travel
//! without any self-referential lifetime: whatever transaction (or `AsOf`
//! timestamp) the caller supplies governs what the operation sees.

use crate::handle::OpenMode;
use crate::store::LoStore;
use crate::{LoError, LoId, Result, UserId};
use pglo_txn::Txn;
use std::io::SeekFrom;

/// Positioned, transaction-free large-object descriptor state.
#[derive(Debug, Clone)]
pub struct LoCursor {
    id: LoId,
    mode: OpenMode,
    user: UserId,
    pos: u64,
    /// `Some(ts)` for a time-travel cursor (always read-only).
    as_of: Option<u64>,
}

impl LoCursor {
    /// A cursor over `id` in the given mode, acting as `user`.
    pub fn new(id: LoId, mode: OpenMode, user: UserId) -> Self {
        Self { id, mode, user, pos: 0, as_of: None }
    }

    /// A time-travel cursor: the object exactly as of commit timestamp
    /// `ts`. Read-only.
    pub fn as_of(id: LoId, ts: u64) -> Self {
        Self { id, mode: OpenMode::ReadOnly, user: UserId::DBA, pos: 0, as_of: Some(ts) }
    }

    /// The object this cursor addresses.
    pub fn id(&self) -> LoId {
        self.id
    }

    /// The open mode.
    pub fn mode(&self) -> OpenMode {
        self.mode
    }

    /// The seek pointer.
    pub fn tell(&self) -> u64 {
        self.pos
    }

    /// Run `f` against a freshly opened handle. Time-travel cursors need no
    /// transaction; snapshot cursors require one.
    pub fn with_handle<R>(
        &self,
        store: &LoStore,
        txn: Option<&Txn>,
        f: impl FnOnce(&mut crate::handle::LoHandle<'_>) -> Result<R>,
    ) -> Result<R> {
        match self.as_of {
            Some(ts) => {
                let mut h = store.open_as_of(self.id, ts)?;
                let r = f(&mut h)?;
                h.close()?;
                Ok(r)
            }
            None => {
                let txn =
                    txn.ok_or(LoError::Unsupported("cursor operation outside a transaction"))?;
                let mut h = store.open_as(txn, self.id, self.mode, self.user)?;
                let r = f(&mut h)?;
                h.close()?;
                Ok(r)
            }
        }
    }

    /// Read up to `buf.len()` bytes at the seek pointer, advancing it.
    pub fn read(&mut self, store: &LoStore, txn: Option<&Txn>, buf: &mut [u8]) -> Result<usize> {
        let pos = self.pos;
        let n = self.with_handle(store, txn, |h| h.read_at(pos, buf))?;
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
        self.with_handle(store, txn, |h| h.read_at(offset, buf))
    }

    /// Write all of `data` at the seek pointer, advancing it.
    pub fn write(&mut self, store: &LoStore, txn: Option<&Txn>, data: &[u8]) -> Result<()> {
        if self.mode == OpenMode::ReadOnly {
            return Err(LoError::ReadOnly);
        }
        let pos = self.pos;
        self.with_handle(store, txn, |h| h.write_at(pos, data))?;
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
        self.with_handle(store, txn, |h| h.write_at(offset, data))
    }

    /// Logical object size under this cursor's visibility.
    pub fn size(&self, store: &LoStore, txn: Option<&Txn>) -> Result<u64> {
        self.with_handle(store, txn, |h| h.size())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LoSpec;
    use pglo_heap::StorageEnv;
    use std::sync::Arc;

    fn setup() -> (tempfile::TempDir, Arc<StorageEnv>, LoStore) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        let store = LoStore::new(Arc::clone(&env));
        (dir, env, store)
    }

    #[test]
    fn cursor_read_write_seek_across_reopens() {
        let (_d, env, store) = setup();
        let txn = env.begin();
        let id = store.create(&txn, &LoSpec::fchunk()).unwrap();
        let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);

        cur.write(&store, Some(&txn), b"hello large world").unwrap();
        assert_eq!(cur.tell(), 17);
        cur.seek(&store, Some(&txn), SeekFrom::Start(6)).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(cur.read(&store, Some(&txn), &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"large");
        cur.seek(&store, Some(&txn), SeekFrom::End(-5)).unwrap();
        assert_eq!(cur.read(&store, Some(&txn), &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        assert_eq!(cur.size(&store, Some(&txn)).unwrap(), 17);
        txn.commit();
    }

    /// Every cursor operation opens a handle and closes it; the close
    /// must free the backend, which holds an `Arc` of the environment (and
    /// for f-chunk an 8 KB chunk cache). A leaked backend shows as one
    /// more strong reference per operation.
    #[test]
    fn cursor_ops_release_their_backend() {
        let (_d, env, store) = setup();
        let txn = env.begin();
        for spec in [LoSpec::fchunk(), LoSpec::vsegment(pglo_compress::CodecKind::None)] {
            let id = store.create(&txn, &spec).unwrap();
            let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);
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
            }
            assert_eq!(cur.seek(&store, Some(&txn), SeekFrom::End(0)).unwrap(), 64_000);
            assert_eq!(Arc::strong_count(&env), held, "{:?}: handles must not leak", spec.kind);
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

    #[test]
    fn cursor_time_travel_pins_old_version() {
        let (_d, env, store) = setup();
        let t1 = env.begin();
        let id = store.create(&t1, &LoSpec::fchunk()).unwrap();
        let mut cur = LoCursor::new(id, OpenMode::ReadWrite, UserId::DBA);
        cur.write(&store, Some(&t1), b"old").unwrap();
        let ts1 = t1.commit();

        let t2 = env.begin();
        cur.write_at(&store, Some(&t2), 0, b"NEW").unwrap();
        t2.commit();

        let old = LoCursor::as_of(id, ts1);
        let mut buf = [0u8; 3];
        old.read_at(&store, None, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"old");

        let now = env.begin();
        let live = LoCursor::new(id, OpenMode::ReadOnly, UserId::DBA);
        live.read_at(&store, Some(&now), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"NEW");
        now.commit();
    }
}
