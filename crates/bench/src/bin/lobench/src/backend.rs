//! The four entry points the same op stream can be driven through — the
//! rungs of the ladder — behind one pair of traits, and [`Conn`], the
//! wrapper every phase talks to: it counts attempts and failures and,
//! when tracing is on, records a span around each call into a rung.
//!
//! * `tcp` and `loopback`: the v4 [`Client`] with its RAII
//!   [`pglo_server::LoHandle`], over a socket or the in-process pipe;
//! * `service`: [`LobdService::handle_frame`] on a payload encoded the
//!   way the client encodes it, with a session of its own;
//! * `core`: [`LoCursor`] over the service's [`LoStore`], which is what
//!   the service itself calls once a frame is decoded.

use crate::trace::Tracer;
use pglo_core::{LoCursor, LoId, LoSpec, LoStore, OpenMode, UserId};
use pglo_heap::StorageEnv;
use pglo_server::proto::{self, Opcode, Reader, SEEK_SET};
use pglo_server::{Client, LobdService, Session, WireSpec};
use pglo_txn::Txn;
use std::io::{Read, SeekFrom, Write};
use std::sync::Arc;

pub type R<T> = Result<T, String>;

fn es<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Session-level operations of one rung.
pub trait Backend {
    type Lo<'a>: LoOps
    where
        Self: 'a;
    /// The rung's name: the first part of every span name.
    const LEVEL: &'static str;
    fn begin(&mut self) -> R<()>;
    fn commit(&mut self) -> R<()>;
    fn create(&mut self) -> R<u64>;
    fn unlink(&mut self, id: u64) -> R<()>;
    fn open(&mut self, id: u64, writable: bool) -> R<Self::Lo<'_>>;
}

/// Operations on one open large object.
pub trait LoOps {
    fn seek(&mut self, offset: u64) -> R<()>;
    fn read(&mut self, len: u32) -> R<Vec<u8>>;
    fn read_at(&mut self, offset: u64, len: u32) -> R<Vec<u8>>;
    fn write(&mut self, data: &[u8]) -> R<()>;
    fn write_at(&mut self, offset: u64, data: &[u8]) -> R<()>;
    fn close(self) -> R<()>;
}

// ---- tcp and loopback ---------------------------------------------------

/// The typed client over transport `S`; `LEVEL` cannot depend on `S`, so
/// the rung's name is carried by the wrapper type.
pub struct Wire<S: Read + Write, const LOOPBACK: bool>(pub Client<S>);
pub type Tcp = Wire<std::net::TcpStream, false>;
pub type Loopback = Wire<pglo_server::loopback::PipeEnd, true>;

impl<S: Read + Write, const LOOPBACK: bool> Backend for Wire<S, LOOPBACK> {
    type Lo<'a>
        = pglo_server::LoHandle<'a, S>
    where
        S: 'a;
    const LEVEL: &'static str = if LOOPBACK { "loopback" } else { "client" };

    fn begin(&mut self) -> R<()> {
        self.0.begin().map_err(es)
    }
    fn commit(&mut self) -> R<()> {
        self.0.commit().map(drop).map_err(es)
    }
    fn create(&mut self) -> R<u64> {
        self.0.lo_create(&WireSpec::fchunk()).map_err(es)
    }
    fn unlink(&mut self, id: u64) -> R<()> {
        self.0.lo_unlink(id).map_err(es)
    }
    fn open(&mut self, id: u64, writable: bool) -> R<Self::Lo<'_>> {
        self.0.lo(id, writable, 0).map_err(es)
    }
}

impl<S: Read + Write> LoOps for pglo_server::LoHandle<'_, S> {
    fn seek(&mut self, offset: u64) -> R<()> {
        pglo_server::LoHandle::seek(self, SEEK_SET, offset as i64).map(drop).map_err(es)
    }
    fn read(&mut self, len: u32) -> R<Vec<u8>> {
        pglo_server::LoHandle::read(self, len).map_err(es)
    }
    fn read_at(&mut self, offset: u64, len: u32) -> R<Vec<u8>> {
        pglo_server::LoHandle::read_at(self, offset, len).map_err(es)
    }
    fn write(&mut self, data: &[u8]) -> R<()> {
        pglo_server::LoHandle::write(self, data).map_err(es)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> R<()> {
        pglo_server::LoHandle::write_at(self, offset, data).map_err(es)
    }
    fn close(self) -> R<()> {
        pglo_server::LoHandle::close(self).map_err(es)
    }
}

// ---- service ------------------------------------------------------------

pub struct Service {
    service: Arc<LobdService>,
    session: Session,
}

impl Service {
    pub fn new(service: &Arc<LobdService>) -> Self {
        Self { service: Arc::clone(service), session: service.session_opened() }
    }

    fn call(&mut self, op: Opcode, payload: &[u8]) -> R<Vec<u8>> {
        let (status, reply) = self.service.handle_frame(&mut self.session, op as u8, payload);
        if status == 0 {
            Ok(reply)
        } else {
            Err(format!("{}: status {status}: {}", op.name(), String::from_utf8_lossy(&reply)))
        }
    }

    fn call_u64(&mut self, op: Opcode, payload: &[u8]) -> R<u64> {
        let reply = self.call(op, payload)?;
        Reader::new(&reply).u64().map_err(es)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.service.session_closed(&mut self.session);
    }
}

pub struct ServiceLo<'a> {
    b: &'a mut Service,
    fd: u32,
}

impl ServiceLo<'_> {
    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        proto::put_u32(&mut p, self.fd);
        p
    }
}

impl Backend for Service {
    type Lo<'a> = ServiceLo<'a>;
    const LEVEL: &'static str = "service";

    fn begin(&mut self) -> R<()> {
        self.call(Opcode::Begin, &[]).map(drop)
    }
    fn commit(&mut self) -> R<()> {
        self.call(Opcode::Commit, &[]).map(drop)
    }
    fn create(&mut self) -> R<u64> {
        let mut p = Vec::new();
        WireSpec::fchunk().encode(&mut p);
        self.call_u64(Opcode::LoCreate, &p)
    }
    fn unlink(&mut self, id: u64) -> R<()> {
        let mut p = Vec::new();
        proto::put_u64(&mut p, id);
        self.call(Opcode::LoUnlink, &p).map(drop)
    }
    fn open(&mut self, id: u64, writable: bool) -> R<ServiceLo<'_>> {
        let mut p = Vec::new();
        proto::put_u64(&mut p, id);
        p.push(u8::from(writable));
        proto::put_u32(&mut p, 0);
        let reply = self.call(Opcode::LoOpen, &p)?;
        let fd = Reader::new(&reply).u32().map_err(es)?;
        Ok(ServiceLo { b: self, fd })
    }
}

impl LoOps for ServiceLo<'_> {
    fn seek(&mut self, offset: u64) -> R<()> {
        let mut p = self.payload();
        p.push(SEEK_SET);
        proto::put_i64(&mut p, offset as i64);
        self.b.call(Opcode::LoSeek, &p).map(drop)
    }
    fn read(&mut self, len: u32) -> R<Vec<u8>> {
        let mut p = self.payload();
        proto::put_u32(&mut p, len);
        self.b.call(Opcode::LoRead, &p)
    }
    fn read_at(&mut self, offset: u64, len: u32) -> R<Vec<u8>> {
        let mut p = self.payload();
        proto::put_u64(&mut p, offset);
        proto::put_u32(&mut p, len);
        self.b.call(Opcode::LoReadAt, &p)
    }
    fn write(&mut self, data: &[u8]) -> R<()> {
        let mut p = self.payload();
        proto::put_bytes(&mut p, data);
        self.b.call(Opcode::LoWrite, &p).map(drop)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> R<()> {
        let mut p = self.payload();
        proto::put_u64(&mut p, offset);
        proto::put_bytes(&mut p, data);
        self.b.call(Opcode::LoWriteAt, &p).map(drop)
    }
    fn close(self) -> R<()> {
        let p = self.payload();
        self.b.call(Opcode::LoClose, &p).map(drop)
    }
}

// ---- core ---------------------------------------------------------------

pub struct Core {
    env: Arc<StorageEnv>,
    store: Arc<LoStore>,
    txn: Option<Txn>,
}

impl Core {
    pub fn new(service: &Arc<LobdService>) -> Self {
        Self { env: Arc::clone(service.env()), store: Arc::clone(service.store()), txn: None }
    }

    fn txn(&self) -> R<&Txn> {
        self.txn.as_ref().ok_or_else(|| "no transaction open".to_string())
    }
}

pub struct CoreLo<'a> {
    b: &'a Core,
    cur: LoCursor,
}

impl Backend for Core {
    type Lo<'a> = CoreLo<'a>;
    const LEVEL: &'static str = "core";

    fn begin(&mut self) -> R<()> {
        self.txn = Some(self.env.begin());
        Ok(())
    }
    fn commit(&mut self) -> R<()> {
        let txn = self.txn.take().ok_or("no transaction open")?;
        txn.try_commit().map(drop).map_err(es)
    }
    fn create(&mut self) -> R<u64> {
        self.store.create(self.txn()?, &LoSpec::fchunk()).map(|id| id.0).map_err(es)
    }
    fn unlink(&mut self, id: u64) -> R<()> {
        self.store.unlink(LoId(id)).map_err(es)
    }
    fn open(&mut self, id: u64, writable: bool) -> R<CoreLo<'_>> {
        let mode = if writable { OpenMode::ReadWrite } else { OpenMode::ReadOnly };
        // The service open-checks before installing the cursor; so do we.
        self.store
            .open_as(self.txn()?, LoId(id), mode, UserId::DBA)
            .map_err(es)?
            .close()
            .map_err(es)?;
        Ok(CoreLo { b: self, cur: LoCursor::new(LoId(id), mode, UserId::DBA) })
    }
}

impl LoOps for CoreLo<'_> {
    fn seek(&mut self, offset: u64) -> R<()> {
        self.cur
            .seek(&self.b.store, self.b.txn.as_ref(), SeekFrom::Start(offset))
            .map(drop)
            .map_err(es)
    }
    fn read(&mut self, len: u32) -> R<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        let n = self.cur.read(&self.b.store, self.b.txn.as_ref(), &mut buf).map_err(es)?;
        buf.truncate(n);
        Ok(buf)
    }
    fn read_at(&mut self, offset: u64, len: u32) -> R<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        let n =
            self.cur.read_at(&self.b.store, self.b.txn.as_ref(), offset, &mut buf).map_err(es)?;
        buf.truncate(n);
        Ok(buf)
    }
    fn write(&mut self, data: &[u8]) -> R<()> {
        self.cur.write(&self.b.store, self.b.txn.as_ref(), data).map_err(es)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> R<()> {
        self.cur.write_at(&self.b.store, self.b.txn.as_ref(), offset, data).map_err(es)
    }
    fn close(self) -> R<()> {
        Ok(())
    }
}

// ---- the wrapper phases talk to ------------------------------------------

/// Attempt and failure counts of one connection. An op that returns an
/// error, is refused, or returns bytes the model does not expect is a
/// failure; `fail_ratio` is their sum over every connection ÷ attempts.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Conn<B: Backend> {
    pub b: B,
    pub tr: Tracer,
    pub tally: Tally,
}

pub struct ConnLo<'a, L: LoOps> {
    lo: L,
    tr: &'a mut Tracer,
    tally: &'a mut Tally,
}

fn counted<T>(
    tr: &mut Tracer,
    tally: &mut Tally,
    op: &'static str,
    f: impl FnOnce() -> R<T>,
) -> R<T> {
    tally.attempted += 1;
    let span = tr.start(op);
    let res = f();
    tr.end(span);
    if res.is_err() {
        tally.failed += 1;
    }
    res
}

impl<B: Backend> Conn<B> {
    pub fn new(b: B, client: usize) -> Self {
        Self { b, tr: Tracer::new(B::LEVEL, client), tally: Tally::default() }
    }

    pub fn begin(&mut self) -> R<()> {
        counted(&mut self.tr, &mut self.tally, "begin", || self.b.begin())
    }
    pub fn commit(&mut self) -> R<()> {
        counted(&mut self.tr, &mut self.tally, "commit", || self.b.commit())
    }
    pub fn create(&mut self) -> R<u64> {
        counted(&mut self.tr, &mut self.tally, "lo_create", || self.b.create())
    }
    pub fn unlink(&mut self, id: u64) -> R<()> {
        counted(&mut self.tr, &mut self.tally, "lo_unlink", || self.b.unlink(id))
    }
    pub fn open(&mut self, id: u64, writable: bool) -> R<ConnLo<'_, B::Lo<'_>>> {
        let Self { b, tr, tally } = self;
        let lo = counted(tr, tally, "lo_open", || b.open(id, writable))?;
        Ok(ConnLo { lo, tr, tally })
    }
}

impl<L: LoOps> ConnLo<'_, L> {
    fn run<T>(&mut self, op: &'static str, f: impl FnOnce(&mut L) -> R<T>) -> R<T> {
        let Self { lo, tr, tally } = self;
        counted(tr, tally, op, || f(lo))
    }
    pub fn seek(&mut self, offset: u64) -> R<()> {
        self.run("lo_seek", |lo| lo.seek(offset))
    }
    pub fn read(&mut self, len: u32) -> R<Vec<u8>> {
        self.run("lo_read", |lo| lo.read(len))
    }
    pub fn read_at(&mut self, offset: u64, len: u32) -> R<Vec<u8>> {
        self.run("lo_read_at", |lo| lo.read_at(offset, len))
    }
    pub fn write(&mut self, data: &[u8]) -> R<()> {
        self.run("lo_write", |lo| lo.write(data))
    }
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> R<()> {
        self.run("lo_write_at", |lo| lo.write_at(offset, data))
    }
    pub fn close(self) -> R<()> {
        let Self { lo, tr, tally } = self;
        counted(tr, tally, "lo_close", || lo.close())
    }
    /// A read whose bytes the model rejected.
    pub fn mismatch(&mut self) {
        self.tally.failed += 1;
    }
}
