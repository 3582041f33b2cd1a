//! Request dispatch: decode a frame's payload, act on the shared storage
//! stack, encode the reply.
//!
//! [`LobdService`] is transport-agnostic — the TCP server and the
//! in-process loopback both feed it `(opcode, payload)` pairs and write
//! back whatever it returns. A malformed payload inside a well-formed
//! frame yields an error *reply*; it never tears down the connection, and
//! a panicking handler is caught and reported as [`ErrorCode::Internal`]
//! so one poisoned request cannot take the daemon down.

use crate::proto::{
    self, ErrorCode, Opcode, Reader, WireSpec, MAX_IO, SEEK_CUR, SEEK_END, SEEK_SET,
};
use crate::session::Session;
use crate::stats::{encode_metrics, OpStats};
use obs::{MetricEntry, MetricValue};
use pglo_compress::CodecKind;
use pglo_core::{LoCursor, LoError, LoId, LoSpec, LoStore, OpenMode, UserId};
use pglo_heap::StorageEnv;
use pglo_inversion::{InvError, InversionFs};
use std::io::SeekFrom;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a handler ends: its reply payload appended to the frame under
/// construction, or an error code with a human-readable message.
type Outcome = Result<(), (ErrorCode, String)>;

/// Pending-page backlog at which the request loop drains redo capture.
/// Low enough that no commit ever waits behind more than roughly this
/// many page images; high enough that hot pages re-dirtied every
/// request (index roots, catalog) are logged once per drain, not once
/// per touch.
const CAPTURE_BACKLOG_PAGES: usize = 16;

/// The shared server core: one storage stack, many sessions.
pub struct LobdService {
    env: Arc<StorageEnv>,
    store: Arc<LoStore>,
    fs: Arc<InversionFs>,
    stats: OpStats,
    sessions: AtomicU64,
    next_session: AtomicU64,
    shutdown: AtomicBool,
}

impl LobdService {
    /// Open (or create) a database under `dir` and build the service.
    ///
    /// Unlike the embedded default, the server runs a background writer so
    /// dirty-page write-back happens off the commit path, and a deeper
    /// buffer pool: with redo logging, commit no longer forces data pages,
    /// so dirty pages can sit in the pool behind the checkpoint horizon —
    /// a server-sized pool (32 MB) turns the old force-at-commit write
    /// storms into pool hits drained lazily by the bgwriter.
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<Self>, LoError> {
        let env = StorageEnv::open_with(
            dir.as_ref(),
            pglo_heap::EnvOptions {
                pool_frames: 4096,
                bgwriter_interval: Some(std::time::Duration::from_millis(2)),
                ..Default::default()
            },
        )?;
        Self::with_env(env)
    }

    /// Build the service over an existing environment.
    pub fn with_env(env: Arc<StorageEnv>) -> Result<Arc<Self>, LoError> {
        let store = Arc::new(LoStore::new(Arc::clone(&env)));
        let fs =
            InversionFs::open(&env, Arc::clone(&store), LoSpec::fchunk()).map_err(|e| match e {
                InvError::Lo(e) => e,
                other => LoError::Meta(other.to_string()),
            })?;
        // A worker that panics mid-request dumps its recent spans before
        // the catch_unwind in handle_frame swallows the payload.
        obs::install_panic_hook();
        Ok(Arc::new(Self {
            env,
            store,
            fs: Arc::new(fs),
            stats: OpStats::new(),
            sessions: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        }))
    }

    /// The storage environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// The large-object store.
    pub fn store(&self) -> &Arc<LoStore> {
        &self.store
    }

    /// The Inversion file system.
    pub fn fs(&self) -> &Arc<InversionFs> {
        &self.fs
    }

    /// Whether a graceful shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request a graceful shutdown (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Allocate a session id and count the connection.
    pub fn session_opened(&self) -> Session {
        self.sessions.fetch_add(1, Ordering::SeqCst);
        Session::new(self.next_session.fetch_add(1, Ordering::SeqCst))
    }

    /// Tear down a session: reclaim temporaries, abort an orphaned
    /// transaction, release the connection slot.
    pub fn session_closed(&self, session: &mut Session) {
        session.close(&self.store);
        self.sessions.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connections currently counted as open.
    pub fn session_count(&self) -> u64 {
        self.sessions.load(Ordering::SeqCst)
    }

    /// Handle one frame: returns `(status_byte, reply_payload)`. Never
    /// panics — handler panics are caught and mapped to
    /// [`ErrorCode::Internal`].
    pub fn handle_frame(&self, session: &mut Session, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut reply = Vec::new();
        let status = self.handle_frame_into(session, tag, payload, &mut reply);
        (status, reply)
    }

    /// [`Self::handle_frame`] with the reply payload appended to `out` —
    /// a connection's write buffer, behind the frame header it reserved —
    /// so a read reply is built where it is sent from. Returns the status
    /// byte; on an error, whatever the handler had appended is replaced
    /// by the message.
    pub(crate) fn handle_frame_into(
        &self,
        session: &mut Session,
        tag: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> u8 {
        let Some(op) = Opcode::from_u8(tag) else {
            out.extend_from_slice(format!("unknown opcode {tag:#04x}").as_bytes());
            return ErrorCode::UnknownOp as u8;
        };
        let mark = out.len();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(session, op, payload, out)))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "handler panicked".into());
                Err((ErrorCode::Internal, format!("internal error: {msg}")))
            });
        let elapsed = start.elapsed().as_nanos() as u64;
        self.stats.record(op, outcome.is_ok(), elapsed);
        // Amortized redo capture: once enough dirtied pages have
        // accumulated, drain them into the WAL off the op's critical
        // path, so a commit never stalls behind a pool-sized batch. The
        // threshold keeps hot pages (index roots, catalog) coalescing
        // across requests instead of logging one image per touch; a
        // failure here is not this request's failure — the commit that
        // needs those images durable will surface it.
        if self.env.pool().capture_backlog() >= CAPTURE_BACKLOG_PAGES
            && self.env.pool().capture_pending().is_err()
        {
            obs::counter!("server.capture_errors").add(1);
        }
        match outcome {
            Ok(()) => 0,
            Err((code, msg)) => {
                out.truncate(mark);
                out.extend_from_slice(msg.as_bytes());
                code as u8
            }
        }
    }

    fn dispatch(
        &self,
        session: &mut Session,
        op: Opcode,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Outcome {
        let mut r = Reader::new(payload);
        match op {
            Opcode::Ping => {
                out.extend_from_slice(payload);
                Ok(())
            }

            Opcode::Begin => {
                r.finish().map_err(malformed)?;
                if session.txn.is_some() {
                    return Err((ErrorCode::TxnOpen, "transaction already open".into()));
                }
                session.txn = Some(self.env.begin());
                Ok(())
            }
            Opcode::Commit => {
                r.finish().map_err(malformed)?;
                let txn = session.txn.take().ok_or_else(no_txn)?;
                // Durability rides the redo log, not data-page forcing:
                // commit captures still-unlogged page images, appends the
                // commit record, and group-commit fsyncs the log. Dirty
                // pages drain lazily via the bgwriter behind the
                // checkpoint horizon.
                let ts = txn
                    .try_commit()
                    .map_err(|e| (ErrorCode::Internal, format!("commit durability: {e}")))?;
                proto::put_u64(out, ts);
                Ok(())
            }
            Opcode::Abort => {
                r.finish().map_err(malformed)?;
                let txn = session.txn.take().ok_or_else(no_txn)?;
                txn.abort();
                Ok(())
            }
            Opcode::CurrentTs => {
                r.finish().map_err(malformed)?;
                proto::put_u64(out, self.env.txns().current_timestamp());
                Ok(())
            }
            Opcode::Stats => {
                r.finish().map_err(malformed)?;
                out.extend_from_slice(&encode_metrics(&self.metrics_entries()));
                Ok(())
            }
            Opcode::Shutdown => {
                r.finish().map_err(malformed)?;
                self.request_shutdown();
                Ok(())
            }

            Opcode::LoCreate => {
                let spec = WireSpec::decode(&mut r).map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let spec = lospec_from_wire(&spec)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let id = self.store.create(txn, &spec).map_err(lo_err)?;
                proto::put_u64(out, id.0);
                Ok(())
            }
            Opcode::LoOpen => {
                let id = LoId(r.u64().map_err(malformed)?);
                let mode = match r.u8().map_err(malformed)? {
                    0 => OpenMode::ReadOnly,
                    1 => OpenMode::ReadWrite,
                    _ => return Err((ErrorCode::Malformed, "bad open mode".into())),
                };
                let user = UserId(r.u32().map_err(malformed)?);
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                // Open now, so a bad id fails at open, not first read; the
                // descriptor keeps this open for the transaction's frames.
                let cur = LoCursor::open(&self.store, txn, id, mode, user).map_err(lo_err)?;
                let fd = session.install(cur);
                proto::put_u32(out, fd);
                Ok(())
            }
            Opcode::LoOpenAsOf => {
                let id = LoId(r.u64().map_err(malformed)?);
                let ts = r.u64().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                // Time travel needs no transaction; validate eagerly.
                let cur = LoCursor::open_as_of(&self.store, id, ts).map_err(lo_err)?;
                let fd = session.install(cur);
                proto::put_u32(out, fd);
                Ok(())
            }
            Opcode::LoRead => {
                let fd = r.u32().map_err(malformed)?;
                let len = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(len)?;
                let Session { txn, fds, .. } = session;
                let cur = fds.get_mut(&fd).ok_or_else(|| bad_fd(fd))?;
                read_into(out, len, |buf| cur.read(&self.store, txn.as_ref(), buf).map_err(lo_err))
            }
            Opcode::LoWrite => {
                let fd = r.u32().map_err(malformed)?;
                let data = r.bytes().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(data.len() as u32)?;
                let Session { txn, fds, .. } = session;
                let cur = fds.get_mut(&fd).ok_or_else(|| bad_fd(fd))?;
                cur.write(&self.store, txn.as_ref(), data).map_err(lo_err)?;
                Ok(())
            }
            Opcode::LoSeek => {
                let fd = r.u32().map_err(malformed)?;
                let whence = r.u8().map_err(malformed)?;
                let offset = r.i64().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let from = match whence {
                    SEEK_SET if offset >= 0 => SeekFrom::Start(offset as u64),
                    SEEK_SET => {
                        return Err((ErrorCode::Malformed, "negative absolute seek".into()))
                    }
                    SEEK_CUR => SeekFrom::Current(offset),
                    SEEK_END => SeekFrom::End(offset),
                    _ => return Err((ErrorCode::Malformed, "bad seek whence".into())),
                };
                let Session { txn, fds, .. } = session;
                let cur = fds.get_mut(&fd).ok_or_else(|| bad_fd(fd))?;
                let pos = cur.seek(&self.store, txn.as_ref(), from).map_err(lo_err)?;
                proto::put_u64(out, pos);
                Ok(())
            }
            Opcode::LoTell => {
                let fd = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let cur = session.fds.get(&fd).ok_or_else(|| bad_fd(fd))?;
                proto::put_u64(out, cur.tell());
                Ok(())
            }
            Opcode::LoClose => {
                let fd = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                session.fds.remove(&fd).ok_or_else(|| bad_fd(fd))?;
                Ok(())
            }
            Opcode::LoUnlink => {
                let id = LoId(r.u64().map_err(malformed)?);
                r.finish().map_err(malformed)?;
                self.store.unlink(id).map_err(lo_err)?;
                Ok(())
            }
            Opcode::LoSize => {
                let fd = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let Session { txn, fds, .. } = session;
                let cur = fds.get(&fd).ok_or_else(|| bad_fd(fd))?;
                let size = cur.size(&self.store, txn.as_ref()).map_err(lo_err)?;
                proto::put_u64(out, size);
                Ok(())
            }
            Opcode::LoReadAt => {
                let fd = r.u32().map_err(malformed)?;
                let offset = r.u64().map_err(malformed)?;
                let len = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(len)?;
                let Session { txn, fds, .. } = session;
                let cur = fds.get(&fd).ok_or_else(|| bad_fd(fd))?;
                read_into(out, len, |buf| {
                    cur.read_at(&self.store, txn.as_ref(), offset, buf).map_err(lo_err)
                })
            }
            Opcode::LoWriteAt => {
                let fd = r.u32().map_err(malformed)?;
                let offset = r.u64().map_err(malformed)?;
                let data = r.bytes().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(data.len() as u32)?;
                let Session { txn, fds, .. } = session;
                let cur = fds.get(&fd).ok_or_else(|| bad_fd(fd))?;
                cur.write_at(&self.store, txn.as_ref(), offset, data).map_err(lo_err)?;
                Ok(())
            }
            Opcode::LoCreateTemp => {
                let spec = WireSpec::decode(&mut r).map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let spec = lospec_from_wire(&spec)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let id = self.store.create_temp(txn, &spec).map_err(lo_err)?;
                session.temps.push(id);
                proto::put_u64(out, id.0);
                Ok(())
            }
            Opcode::LoKeepTemp => {
                let id = LoId(r.u64().map_err(malformed)?);
                r.finish().map_err(malformed)?;
                let was_temp = self.store.keep_temp(id);
                session.temps.retain(|t| *t != id);
                out.push(u8::from(was_temp));
                Ok(())
            }
            Opcode::GcTemps => {
                r.finish().map_err(malformed)?;
                let reclaimed = session.gc_temps(&self.store) as u32;
                proto::put_u32(out, reclaimed);
                Ok(())
            }
            Opcode::LoImport => {
                let spec = WireSpec::decode(&mut r).map_err(malformed)?;
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let spec = lospec_from_wire(&spec)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let id = self.store.import_file(txn, &spec, &path).map_err(lo_err)?;
                proto::put_u64(out, id.0);
                Ok(())
            }
            Opcode::LoExport => {
                let id = LoId(r.u64().map_err(malformed)?);
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let n = self.store.export_file(txn, id, &path).map_err(lo_err)?;
                proto::put_u64(out, n);
                Ok(())
            }

            Opcode::InvCreate => {
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let id = self.fs.create(txn, &path).map_err(inv_err)?;
                proto::put_u64(out, id);
                Ok(())
            }
            Opcode::InvMkdir => {
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let id = self.fs.mkdir(txn, &path).map_err(inv_err)?;
                proto::put_u64(out, id);
                Ok(())
            }
            Opcode::InvRead => {
                let path = r.str().map_err(malformed)?;
                let offset = r.u64().map_err(malformed)?;
                let len = r.u32().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(len)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let mut f = self.fs.open_file(txn, &path, OpenMode::ReadOnly).map_err(inv_err)?;
                read_into(out, len, |buf| f.read_at(offset, buf).map_err(inv_err))?;
                f.close().map_err(inv_err)
            }
            Opcode::InvWrite => {
                let path = r.str().map_err(malformed)?;
                let offset = r.u64().map_err(malformed)?;
                let data = r.bytes().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                check_io_len(data.len() as u32)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let mut f = self.fs.open_file(txn, &path, OpenMode::ReadWrite).map_err(inv_err)?;
                f.write_at(offset, data).map_err(inv_err)?;
                f.close().map_err(inv_err)?;
                Ok(())
            }
            Opcode::InvStat => {
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let st = self.fs.stat(txn, &path).map_err(inv_err)?;
                proto::put_u64(out, st.file_id);
                proto::put_u32(out, st.owner.0);
                proto::put_u32(out, st.mode);
                proto::put_u64(out, st.atime);
                proto::put_u64(out, st.mtime);
                proto::put_u64(out, st.size);
                out.push(u8::from(st.is_dir));
                Ok(())
            }
            Opcode::InvReaddir => {
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                let entries = self.fs.readdir(txn, &path).map_err(inv_err)?;
                proto::put_u32(out, entries.len() as u32);
                for e in entries {
                    proto::put_str(out, &e.name);
                    proto::put_u64(out, e.file_id);
                    out.push(u8::from(e.is_dir));
                }
                Ok(())
            }
            Opcode::InvRename => {
                let from = r.str().map_err(malformed)?;
                let to = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                self.fs.rename(txn, &from, &to).map_err(inv_err)?;
                Ok(())
            }
            Opcode::InvUnlink => {
                let path = r.str().map_err(malformed)?;
                r.finish().map_err(malformed)?;
                let txn = session.txn.as_ref().ok_or_else(no_txn)?;
                self.fs.unlink(txn, &path).map_err(inv_err)?;
                Ok(())
            }
        }
    }

    /// Every metric this service can report: per-op counters and latency
    /// percentiles, the pool / txn / session scalars, and the
    /// process-global obs registry (smgr / pool / txn / LO-implementation
    /// layer metrics). Name-sorted; this is the `stats` reply payload and
    /// what `lobd` prints at exit.
    ///
    /// Derived rates are computed from the counters captured here (the
    /// single `pool` read below), never from a second read of a live
    /// source — `pool.hit_rate` always agrees with
    /// `pool.hits / (pool.hits + pool.misses)` of the same reply.
    pub fn metrics_entries(&self) -> Vec<MetricEntry> {
        use MetricValue::{Counter, Float, Gauge};
        let pool = self.env.pool().stats();
        let (commits, aborts) = self.env.txns().counters();
        let mut entries = Vec::new();
        self.stats.entries(&mut entries);
        entries.extend(
            [
                ("pool.hits", Counter(pool.hits)),
                ("pool.misses", Counter(pool.misses)),
                ("pool.hit_rate", Float(pool.hit_rate())),
                ("pool.prefetch_pages", Counter(pool.prefetch_pages)),
                ("pool.prefetch_hits", Counter(pool.prefetch_hits)),
                ("pool.bgwriter_pages", Counter(pool.bgwriter_pages)),
                ("txn.commits", Counter(commits)),
                ("txn.aborts", Counter(aborts)),
                ("txn.active", Gauge(self.env.txns().active_count() as u64)),
                ("server.sessions.active", Gauge(self.session_count())),
            ]
            .map(|(name, value)| MetricEntry::new(name, value)),
        );
        entries.extend(obs::snapshot_entries());
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }
}

fn malformed(e: proto::DecodeError) -> (ErrorCode, String) {
    (ErrorCode::Malformed, e.to_string())
}

fn no_txn() -> (ErrorCode, String) {
    (ErrorCode::NoTxn, "no transaction open in this session".into())
}

fn bad_fd(fd: u32) -> (ErrorCode, String) {
    (ErrorCode::BadFd, format!("descriptor {fd} is not open in this session"))
}

/// Serve a read of up to `len` bytes straight into the reply under
/// construction: `read` fills the slice it is handed and returns how
/// much of it is data.
fn read_into(
    out: &mut Vec<u8>,
    len: u32,
    read: impl FnOnce(&mut [u8]) -> Result<usize, (ErrorCode, String)>,
) -> Outcome {
    let start = out.len();
    out.resize(start + len as usize, 0);
    let n = read(&mut out[start..])?;
    out.truncate(start + n);
    Ok(())
}

fn check_io_len(len: u32) -> Result<(), (ErrorCode, String)> {
    if len > MAX_IO {
        Err((ErrorCode::TooLarge, format!("{len} bytes exceeds the {MAX_IO}-byte op limit")))
    } else {
        Ok(())
    }
}

fn lospec_from_wire(w: &WireSpec) -> Result<LoSpec, (ErrorCode, String)> {
    let mut spec = match w.kind {
        0 => {
            let path = w
                .path
                .as_ref()
                .ok_or_else(|| (ErrorCode::Malformed, "u-file spec requires a path".to_string()))?;
            LoSpec::ufile(path)
        }
        1 => LoSpec::pfile(),
        2 => LoSpec::fchunk(),
        3 => LoSpec::vsegment(CodecKind::None),
        k => return Err((ErrorCode::Malformed, format!("bad large-object kind {k}"))),
    };
    spec.codec = match w.codec {
        0 => CodecKind::None,
        1 => CodecKind::Rle,
        2 => CodecKind::Lz77,
        c => return Err((ErrorCode::Malformed, format!("bad codec {c}"))),
    };
    spec.owner = UserId(w.user);
    if w.chunk_size != 0 {
        spec.chunk_size = w.chunk_size as usize;
    }
    Ok(spec)
}

fn lo_err(e: LoError) -> (ErrorCode, String) {
    let code = match &e {
        LoError::NotFound(_) => ErrorCode::NotFound,
        LoError::Permission { .. } => ErrorCode::Permission,
        LoError::ReadOnly => ErrorCode::ReadOnly,
        LoError::Unsupported(_) => ErrorCode::Unsupported,
        LoError::Io(_) => ErrorCode::Io,
        LoError::Heap(_) | LoError::Smgr(_) | LoError::Corrupt(_) | LoError::Meta(_) => {
            ErrorCode::Storage
        }
    };
    (code, e.to_string())
}

fn inv_err(e: InvError) -> (ErrorCode, String) {
    let code = match &e {
        InvError::Lo(lo) => return lo_err_keep_msg(lo, &e),
        InvError::NotFound(_) => ErrorCode::NotFound,
        InvError::Exists(_)
        | InvError::NotADirectory(_)
        | InvError::IsADirectory(_)
        | InvError::NotEmpty(_)
        | InvError::BadPath(_) => ErrorCode::Path,
        InvError::Heap(_) | InvError::Adt(_) => ErrorCode::Storage,
    };
    (code, e.to_string())
}

fn lo_err_keep_msg(lo: &LoError, outer: &InvError) -> (ErrorCode, String) {
    let code = match lo {
        LoError::NotFound(_) => ErrorCode::NotFound,
        LoError::Permission { .. } => ErrorCode::Permission,
        LoError::ReadOnly => ErrorCode::ReadOnly,
        LoError::Unsupported(_) => ErrorCode::Unsupported,
        LoError::Io(_) => ErrorCode::Io,
        _ => ErrorCode::Storage,
    };
    (code, outer.to_string())
}
