//! The typed lobd client. Generic over the transport — a [`TcpStream`] in
//! production, the in-process loopback pipe in tests — so every typed
//! method exercises the exact same codec either way.
//!
//! There is one request path: [`Pipeline`] encodes an operation's payload,
//! sends it as one tagged frame and hands back a typed [`Ticket`];
//! redeeming the ticket decodes the reply. Every sequential method on
//! [`Client`] and [`LoHandle`] is that same enqueue + redeem with nothing
//! else in flight, so each opcode's payload layout is written, and each
//! reply shape decoded, in exactly one place.

use crate::proto::{self, ErrorCode, Opcode, Reader, WireSpec, MAGIC, MAX_IO, VERSION};
use crate::stats::decode_metrics;
use obs::MetricEntry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};

/// Default window for [`Client::pipeline`]: requests in flight before
/// enqueueing blocks on the oldest reply.
pub const DEFAULT_PIPELINE_WINDOW: usize = 16;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing the connection).
    Io(io::Error),
    /// The server replied with an error status.
    Server(ErrorCode, String),
    /// The reply did not decode as expected.
    Protocol(String),
    /// The server's hello named a different protocol version than this
    /// client speaks. Carries `(server_version, client_version)`.
    Version(u8, u8),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(code, msg) => write!(f, "server error {code:?}: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Version(server, client) => {
                write!(f, "server speaks protocol version {server}, client offered {client}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<proto::DecodeError> for ClientError {
    fn from(e: proto::DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

impl From<proto::FrameError> for ClientError {
    fn from(e: proto::FrameError) -> Self {
        match e {
            proto::FrameError::Eof => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            proto::FrameError::Io(e) => ClientError::Io(e),
            proto::FrameError::BadLength(n) => {
                ClientError::Protocol(format!("server sent bad frame length {n}"))
            }
        }
    }
}

impl ClientError {
    /// The server error code, if this is a server-reported failure.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server(code, _) => Some(*code),
            _ => None,
        }
    }

    /// An error reply (nonzero `status`) as the error it reports.
    fn from_reply(status: u8, msg: &[u8]) -> Self {
        match ErrorCode::from_u8(status) {
            Some(code) => ClientError::Server(code, String::from_utf8_lossy(msg).into_owned()),
            None => ClientError::Protocol(format!("unknown status byte {status}")),
        }
    }
}

/// Client-side result type.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Decoded `inv_stat` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inversion file id.
    pub file_id: u64,
    /// Owner user id.
    pub owner: u32,
    /// Permission bits.
    pub mode: u32,
    /// Last-access logical timestamp.
    pub atime: u64,
    /// Last-modification logical timestamp.
    pub mtime: u64,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether the path is a directory.
    pub is_dir: bool,
}

/// One `inv_readdir` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Name within the directory.
    pub name: String,
    /// Inversion file id.
    pub file_id: u64,
    /// Whether the entry is a directory.
    pub is_dir: bool,
}

/// A connected lobd client.
///
/// Every request carries a client-chosen tag; sends and reply-reads are
/// decoupled, and replies park in a completion buffer until their tag is
/// redeemed. [`Client::pipeline`] opens that window to the caller; the
/// typed one-op methods ([`Client::ping`], [`LoHandle::read`], ...) keep
/// it at one — enqueue, redeem at once.
pub struct Client<S: Read + Write> {
    stream: S,
    /// Next request tag.
    next_tag: u32,
    /// Tags sent whose replies have not yet been read off the wire, in
    /// send order (the server replies in send order).
    inflight: VecDeque<u32>,
    /// Replies read off the wire but not yet redeemed, by tag.
    completed: HashMap<u32, (u8, Vec<u8>)>,
    /// Scratch: the payload being built, then the whole frame, so a
    /// request costs no allocation and leaves in one `write_all`.
    payload: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes read off the wire past the last decoded reply.
    rbuf: Vec<u8>,
}

impl Client<TcpStream> {
    /// Connect over TCP and perform the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(stream)
    }
}

impl<S: Read + Write> Client<S> {
    /// Perform the `MAGIC ++ VERSION` handshake over an open transport.
    /// The server must answer with the same five bytes; a hello naming
    /// another version is a [`ClientError::Version`].
    pub fn handshake(mut stream: S) -> Result<Self> {
        let mut hello = [0u8; 5];
        hello[..4].copy_from_slice(MAGIC);
        hello[4] = VERSION;
        stream.write_all(&hello)?;
        stream.flush()?;
        stream.read_exact(&mut hello)?;
        if &hello[..4] != MAGIC {
            return Err(ClientError::Protocol("server did not answer with lobd magic".into()));
        }
        if hello[4] != VERSION {
            return Err(ClientError::Version(hello[4], VERSION));
        }
        Ok(Self {
            stream,
            next_tag: 1,
            inflight: VecDeque::new(),
            completed: HashMap::new(),
            payload: Vec::new(),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        })
    }

    /// Give back the transport (e.g. to drop it abruptly in tests).
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Send a raw `(opcode_byte, payload)` frame and return the raw
    /// `(status_byte, payload)` reply. Escape hatch for robustness tests.
    pub fn call_raw(&mut self, opcode: u8, payload: &[u8]) -> Result<(u8, Vec<u8>)> {
        let tag = self.send(opcode, |p| p.extend_from_slice(payload))?;
        self.fetch_reply(tag)
    }

    /// Send one request frame — payload written by `build` — without
    /// awaiting its reply; returns the tag the reply will carry.
    fn send(&mut self, opcode: u8, build: impl FnOnce(&mut Vec<u8>)) -> Result<u32> {
        let tag = self.next_tag;
        // Tag 0 is reserved for server-initiated frames (shutdown
        // notices, framing errors); skip it on wraparound.
        self.next_tag = match self.next_tag.wrapping_add(1) {
            0 => 1,
            t => t,
        };
        self.payload.clear();
        build(&mut self.payload);
        self.wbuf.clear();
        proto::encode_frame_into(&mut self.wbuf, tag, opcode, &self.payload);
        self.stream.write_all(&self.wbuf)?;
        self.stream.flush()?;
        self.inflight.push_back(tag);
        Ok(tag)
    }

    /// Read the next reply off the wire into the completion buffer.
    fn pump_one(&mut self) -> Result<()> {
        let (tag, status, payload) = proto::read_frame(&mut self.stream, &mut self.rbuf)?;
        // Replies arrive in send order; server-initiated frames (tag 0,
        // e.g. a shutdown notice racing our sends) are not ours to match.
        if let Some(pos) = self.inflight.iter().position(|t| *t == tag) {
            self.inflight.remove(pos);
            self.completed.insert(tag, (status, payload));
        } else if tag == 0 {
            let code = ErrorCode::from_u8(status).unwrap_or(ErrorCode::Internal);
            return Err(ClientError::Server(code, String::from_utf8_lossy(&payload).into_owned()));
        } else {
            return Err(ClientError::Protocol(format!("reply for unknown tag {tag}")));
        }
        Ok(())
    }

    /// Redeem `tag`: return its buffered reply, reading further replies
    /// off the wire as needed.
    fn fetch_reply(&mut self, tag: u32) -> Result<(u8, Vec<u8>)> {
        loop {
            if let Some(reply) = self.completed.remove(&tag) {
                return Ok(reply);
            }
            if !self.inflight.contains(&tag) {
                return Err(ClientError::Protocol(format!("no reply pending for tag {tag}")));
            }
            self.pump_one()?;
        }
    }

    /// Open a pipeline with the default window
    /// ([`DEFAULT_PIPELINE_WINDOW`]). Ops enqueue on the returned guard
    /// and come back as typed [`Ticket`]s; see [`Pipeline`].
    pub fn pipeline(&mut self) -> Pipeline<'_, S> {
        self.pipeline_with_window(DEFAULT_PIPELINE_WINDOW)
    }

    /// Open a pipeline with an explicit window (clamped to ≥ 1).
    pub fn pipeline_with_window(&mut self, window: usize) -> Pipeline<'_, S> {
        Pipeline { client: self, window: window.max(1) }
    }

    /// One operation, sequentially: enqueue it on a window of one and
    /// redeem its ticket at once.
    fn call<T>(
        &mut self,
        enqueue: impl FnOnce(&mut Pipeline<'_, S>) -> Result<Ticket<T>>,
    ) -> Result<T> {
        let mut pipe = self.pipeline_with_window(1);
        let ticket = enqueue(&mut pipe)?;
        pipe.redeem(ticket)
    }

    /// Liveness probe; the server echoes the payload.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        self.call(|p| p.ping(payload))
    }

    /// Begin the session transaction.
    pub fn begin(&mut self) -> Result<()> {
        self.call(|p| p.begin())
    }

    /// Commit the session transaction, returning its commit timestamp.
    pub fn commit(&mut self) -> Result<u64> {
        self.call(|p| p.commit())
    }

    /// Abort the session transaction.
    pub fn abort(&mut self) -> Result<()> {
        self.call(|p| p.abort())
    }

    /// The latest commit timestamp — the "as of now" time-travel axis.
    pub fn current_ts(&mut self) -> Result<u64> {
        self.call(|p| p.current_ts())
    }

    /// The full self-describing metrics snapshot, name-sorted: every
    /// counter, gauge, and histogram percentile the server reports
    /// (per-opcode counts and p50/p95/p99, pool and transaction scalars,
    /// per-smgr-device read/write histograms, per-LO-implementation byte
    /// counters, ...). Look entries up by name.
    pub fn metrics(&mut self) -> Result<Vec<MetricEntry>> {
        self.call(|p| p.enqueue(Opcode::Stats, |b| Ok(decode_metrics(&b)?), |_| {}))
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(|p| p.enqueue(Opcode::Shutdown, dec_unit, |_| {}))
    }

    /// Create a large object, returning its id.
    pub fn lo_create(&mut self, spec: &WireSpec) -> Result<u64> {
        self.call(|p| p.lo_create(spec))
    }

    /// Open a large object, returning an RAII handle that closes the
    /// descriptor when dropped. This is the supported way to do
    /// sequential positioned I/O; raw descriptors are [`Pipeline`]'s.
    pub fn lo(&mut self, id: u64, writable: bool, user: u32) -> Result<LoHandle<'_, S>> {
        let fd = self.call(|p| p.lo_open(id, writable, user))?;
        Ok(LoHandle { client: self, fd, closed: false })
    }

    /// Open a large object as of commit timestamp `ts` (read-only; works
    /// with no transaction open), returning an RAII handle.
    pub fn lo_as_of(&mut self, id: u64, ts: u64) -> Result<LoHandle<'_, S>> {
        let fd = self.call(|p| p.lo_open_as_of(id, ts))?;
        Ok(LoHandle { client: self, fd, closed: false })
    }

    /// Remove a large object.
    pub fn lo_unlink(&mut self, id: u64) -> Result<()> {
        self.call(|p| p.lo_unlink(id))
    }

    /// Create a temporary large object (reclaimed at `gc_temps` or
    /// disconnect unless kept).
    pub fn lo_create_temp(&mut self, spec: &WireSpec) -> Result<u64> {
        self.call(|p| p.enqueue(Opcode::LoCreateTemp, dec_u64, |b| spec.encode(b)))
    }

    /// Promote a temporary to permanent; returns whether it was still
    /// temporary.
    pub fn lo_keep_temp(&mut self, id: u64) -> Result<bool> {
        let dec = |b: Vec<u8>| match b.as_slice() {
            [flag] => Ok(*flag != 0),
            _ => Err(ClientError::Protocol("bad keep_temp reply".into())),
        };
        self.call(|p| p.enqueue(Opcode::LoKeepTemp, dec, |b| proto::put_u64(b, id)))
    }

    /// Reclaim this session's unpromoted temporaries; returns the count.
    pub fn gc_temps(&mut self) -> Result<u32> {
        self.call(|p| p.enqueue(Opcode::GcTemps, dec_u32, |_| {}))
    }

    /// Server-side `lo_import`: load a host file into a new large object.
    pub fn lo_import(&mut self, spec: &WireSpec, host_path: &str) -> Result<u64> {
        self.call(|p| {
            p.enqueue(Opcode::LoImport, dec_u64, |b| {
                spec.encode(b);
                proto::put_str(b, host_path);
            })
        })
    }

    /// Server-side `lo_export`: copy a large object into a host file.
    /// Returns bytes written.
    pub fn lo_export(&mut self, id: u64, host_path: &str) -> Result<u64> {
        self.call(|p| {
            p.enqueue(Opcode::LoExport, dec_u64, |b| {
                proto::put_u64(b, id);
                proto::put_str(b, host_path);
            })
        })
    }

    /// Create an Inversion file.
    pub fn inv_create(&mut self, path: &str) -> Result<u64> {
        self.call(|p| p.enqueue(Opcode::InvCreate, dec_u64, |b| proto::put_str(b, path)))
    }

    /// Create an Inversion directory.
    pub fn inv_mkdir(&mut self, path: &str) -> Result<u64> {
        self.call(|p| p.enqueue(Opcode::InvMkdir, dec_u64, |b| proto::put_str(b, path)))
    }

    /// Read from an Inversion file.
    pub fn inv_read(&mut self, path: &str, offset: u64, len: u32) -> Result<Vec<u8>> {
        self.call(|p| p.inv_read(path, offset, len))
    }

    /// Write to an Inversion file.
    pub fn inv_write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.call(|p| p.inv_write(path, offset, data))
    }

    /// Stat an Inversion path.
    pub fn inv_stat(&mut self, path: &str) -> Result<Stat> {
        let dec = |b: Vec<u8>| {
            let mut r = Reader::new(&b);
            let st = Stat {
                file_id: r.u64()?,
                owner: r.u32()?,
                mode: r.u32()?,
                atime: r.u64()?,
                mtime: r.u64()?,
                size: r.u64()?,
                is_dir: r.u8()? != 0,
            };
            r.finish()?;
            Ok(st)
        };
        self.call(|p| p.enqueue(Opcode::InvStat, dec, |b| proto::put_str(b, path)))
    }

    /// List an Inversion directory.
    pub fn inv_readdir(&mut self, path: &str) -> Result<Vec<Entry>> {
        let dec = |b: Vec<u8>| {
            let mut r = Reader::new(&b);
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                entries.push(Entry { name: r.str()?, file_id: r.u64()?, is_dir: r.u8()? != 0 });
            }
            r.finish()?;
            Ok(entries)
        };
        self.call(|p| p.enqueue(Opcode::InvReaddir, dec, |b| proto::put_str(b, path)))
    }

    /// Rename an Inversion path.
    pub fn inv_rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.call(|p| {
            p.enqueue(Opcode::InvRename, dec_unit, |b| {
                proto::put_str(b, from);
                proto::put_str(b, to);
            })
        })
    }

    /// Unlink an Inversion file.
    pub fn inv_unlink(&mut self, path: &str) -> Result<()> {
        self.call(|p| p.enqueue(Opcode::InvUnlink, dec_unit, |b| proto::put_str(b, path)))
    }
}

impl<S: Read + Write> std::fmt::Debug for Client<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").field("inflight", &self.inflight.len()).finish_non_exhaustive()
    }
}

/// An RAII guard over an open large-object descriptor.
///
/// Returned by [`Client::lo`] / [`Client::lo_as_of`]; borrows the client
/// mutably, so all I/O on the object flows through the handle. Dropping
/// the handle closes the descriptor best-effort (errors — e.g. a dead
/// connection — are swallowed); call [`LoHandle::close`] to observe the
/// close result. The handle exists so sequential code cannot leak a
/// descriptor; code that must hold raw descriptors uses a [`Pipeline`].
pub struct LoHandle<'c, S: Read + Write> {
    client: &'c mut Client<S>,
    fd: u32,
    closed: bool,
}

impl<S: Read + Write> LoHandle<'_, S> {
    /// The raw descriptor, for wire-level tests that need it.
    pub fn fd(&self) -> u32 {
        self.fd
    }

    /// Read up to `len` bytes at the seek pointer.
    pub fn read(&mut self, len: u32) -> Result<Vec<u8>> {
        let fd = self.fd;
        self.client.call(|p| p.lo_read(fd, len))
    }

    /// Write `data` at the seek pointer. `data` must fit one op
    /// ([`MAX_IO`]); see [`LoHandle::write_all`] for chunking.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        let fd = self.fd;
        self.client.call(|p| p.lo_write(fd, data))
    }

    /// Write arbitrarily much data at the seek pointer, chunking into
    /// [`MAX_IO`]-sized ops.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        for chunk in data.chunks(MAX_IO as usize) {
            self.write(chunk)?;
        }
        Ok(())
    }

    /// Read exactly `len` bytes starting at the seek pointer, chunking
    /// into [`MAX_IO`]-sized ops. Short data ends the read early.
    pub fn read_all(&mut self, len: u64) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
        let mut remaining = len;
        while remaining > 0 {
            let ask = remaining.min(MAX_IO as u64) as u32;
            let got = self.read(ask)?;
            if got.is_empty() {
                break;
            }
            remaining -= got.len() as u64;
            out.extend_from_slice(&got);
        }
        Ok(out)
    }

    /// Move the seek pointer: `whence` is one of
    /// [`SEEK_SET`](crate::proto::SEEK_SET),
    /// [`SEEK_CUR`](crate::proto::SEEK_CUR),
    /// [`SEEK_END`](crate::proto::SEEK_END). Returns the new position.
    pub fn seek(&mut self, whence: u8, offset: i64) -> Result<u64> {
        let fd = self.fd;
        self.client.call(|p| p.lo_seek(fd, whence, offset))
    }

    /// The seek pointer.
    pub fn tell(&mut self) -> Result<u64> {
        let fd = self.fd;
        self.client.call(|p| p.enqueue(Opcode::LoTell, dec_u64, |b| proto::put_u32(b, fd)))
    }

    /// Logical object size under the descriptor's visibility.
    pub fn size(&mut self) -> Result<u64> {
        let fd = self.fd;
        self.client.call(|p| p.lo_size(fd))
    }

    /// Read at an explicit offset without moving the seek pointer.
    pub fn read_at(&mut self, offset: u64, len: u32) -> Result<Vec<u8>> {
        let fd = self.fd;
        self.client.call(|p| p.lo_read_at(fd, offset, len))
    }

    /// Write at an explicit offset without moving the seek pointer.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let fd = self.fd;
        self.client.call(|p| p.lo_write_at(fd, offset, data))
    }

    /// Close the descriptor, reporting the server's answer (unlike the
    /// silent close on drop).
    pub fn close(mut self) -> Result<()> {
        self.closed = true;
        let fd = self.fd;
        self.client.call(|p| p.lo_close(fd))
    }
}

impl<S: Read + Write> Drop for LoHandle<'_, S> {
    fn drop(&mut self) {
        if !self.closed {
            let fd = self.fd;
            // Best-effort close; use `close()` to observe failures.
            if self.client.call(|p| p.lo_close(fd)).is_err() {
                obs::counter!("client.drop_close.errors").add(1);
            }
        }
    }
}

/// A claim on one in-flight operation's reply, typed by what the reply
/// decodes to. Redeem it with [`Pipeline::redeem`]; dropping it
/// unredeemed is fine (the pipeline guard drains abandoned replies).
#[must_use = "redeem the ticket to observe the operation's result"]
pub struct Ticket<T> {
    tag: u32,
    decode: fn(Vec<u8>) -> Result<T>,
    _t: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("tag", &self.tag).finish_non_exhaustive()
    }
}

fn dec_bytes(b: Vec<u8>) -> Result<Vec<u8>> {
    Ok(b)
}

fn dec_unit(b: Vec<u8>) -> Result<()> {
    if b.is_empty() {
        Ok(())
    } else {
        Err(ClientError::Protocol("unexpected reply payload".into()))
    }
}

fn dec_u32(b: Vec<u8>) -> Result<u32> {
    let mut r = Reader::new(&b);
    let v = r.u32()?;
    r.finish()?;
    Ok(v)
}

fn dec_u64(b: Vec<u8>) -> Result<u64> {
    let mut r = Reader::new(&b);
    let v = r.u64()?;
    r.finish()?;
    Ok(v)
}

/// A pipelining guard over a client: ops *enqueue* instead of round-
/// tripping, each returning a typed [`Ticket`] redeemed later — so up
/// to `window` operations ride the wire concurrently. Execution is
/// strictly in-order per session on the server, so pipelined ops see
/// exactly the semantics sequential ops would; only the latency
/// changes. Tickets may be redeemed in any order of the caller's
/// choosing; replies complete in send order and park in the client's
/// completion buffer until their ticket claims them.
///
/// Enqueueing past the window blocks on the oldest outstanding reply
/// first, so a slow consumer cannot buffer unboundedly. Dropping the
/// guard drains every unredeemed reply best-effort (errors counted as
/// `client.pipeline.drop_drain_errors`), leaving the client ready for
/// sequential use again.
///
/// This is also the raw-descriptor API: pipelined I/O addresses objects
/// by the `u32` fd that [`Pipeline::lo_open`] yields — the RAII
/// [`LoHandle`] is the sequential API's affordance; a pipeline must be
/// free to keep many ops on one fd in flight.
pub struct Pipeline<'c, S: Read + Write> {
    client: &'c mut Client<S>,
    window: usize,
}

impl<S: Read + Write> Pipeline<'_, S> {
    /// The configured window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Send `op` with the payload `build` writes; the ticket's reply
    /// decodes with `decode`.
    fn enqueue<T>(
        &mut self,
        op: Opcode,
        decode: fn(Vec<u8>) -> Result<T>,
        build: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Ticket<T>> {
        while self.client.inflight.len() >= self.window {
            self.client.pump_one()?;
        }
        let tag = self.client.send(op as u8, build)?;
        Ok(Ticket { tag, decode, _t: PhantomData })
    }

    /// Redeem a ticket: block until its reply is in hand, then decode.
    pub fn redeem<T>(&mut self, ticket: Ticket<T>) -> Result<T> {
        let (status, reply) = self.client.fetch_reply(ticket.tag)?;
        if status == 0 {
            (ticket.decode)(reply)
        } else {
            Err(ClientError::from_reply(status, &reply))
        }
    }

    /// Enqueue a liveness probe; the server echoes the payload.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Ticket<Vec<u8>>> {
        self.enqueue(Opcode::Ping, dec_bytes, |b| b.extend_from_slice(payload))
    }

    /// Enqueue a `begin`.
    pub fn begin(&mut self) -> Result<Ticket<()>> {
        self.enqueue(Opcode::Begin, dec_unit, |_| {})
    }

    /// Enqueue a `commit`; the ticket yields the commit timestamp.
    pub fn commit(&mut self) -> Result<Ticket<u64>> {
        self.enqueue(Opcode::Commit, dec_u64, |_| {})
    }

    /// Enqueue an `abort`.
    pub fn abort(&mut self) -> Result<Ticket<()>> {
        self.enqueue(Opcode::Abort, dec_unit, |_| {})
    }

    /// Enqueue a `current_ts` probe.
    pub fn current_ts(&mut self) -> Result<Ticket<u64>> {
        self.enqueue(Opcode::CurrentTs, dec_u64, |_| {})
    }

    /// Enqueue a large-object create; the ticket yields the new id.
    pub fn lo_create(&mut self, spec: &WireSpec) -> Result<Ticket<u64>> {
        self.enqueue(Opcode::LoCreate, dec_u64, |b| spec.encode(b))
    }

    /// Enqueue a large-object unlink.
    pub fn lo_unlink(&mut self, id: u64) -> Result<Ticket<()>> {
        self.enqueue(Opcode::LoUnlink, dec_unit, |b| proto::put_u64(b, id))
    }

    /// Enqueue an open; the ticket yields the raw descriptor.
    pub fn lo_open(&mut self, id: u64, writable: bool, user: u32) -> Result<Ticket<u32>> {
        self.enqueue(Opcode::LoOpen, dec_u32, |b| {
            proto::put_u64(b, id);
            b.push(u8::from(writable));
            proto::put_u32(b, user);
        })
    }

    /// Enqueue a time-travel open (read-only, as of `ts`).
    pub fn lo_open_as_of(&mut self, id: u64, ts: u64) -> Result<Ticket<u32>> {
        self.enqueue(Opcode::LoOpenAsOf, dec_u32, |b| {
            proto::put_u64(b, id);
            proto::put_u64(b, ts);
        })
    }

    /// Enqueue a read at the seek pointer.
    pub fn lo_read(&mut self, fd: u32, len: u32) -> Result<Ticket<Vec<u8>>> {
        self.enqueue(Opcode::LoRead, dec_bytes, |b| {
            proto::put_u32(b, fd);
            proto::put_u32(b, len);
        })
    }

    /// Enqueue a write at the seek pointer (must fit one op, [`MAX_IO`]).
    pub fn lo_write(&mut self, fd: u32, data: &[u8]) -> Result<Ticket<()>> {
        self.enqueue(Opcode::LoWrite, dec_unit, |b| {
            proto::put_u32(b, fd);
            proto::put_bytes(b, data);
        })
    }

    /// Enqueue a positioned read (seek pointer unchanged).
    pub fn lo_read_at(&mut self, fd: u32, offset: u64, len: u32) -> Result<Ticket<Vec<u8>>> {
        self.enqueue(Opcode::LoReadAt, dec_bytes, |b| {
            proto::put_u32(b, fd);
            proto::put_u64(b, offset);
            proto::put_u32(b, len);
        })
    }

    /// Enqueue a positioned write (seek pointer unchanged).
    pub fn lo_write_at(&mut self, fd: u32, offset: u64, data: &[u8]) -> Result<Ticket<()>> {
        self.enqueue(Opcode::LoWriteAt, dec_unit, |b| {
            proto::put_u32(b, fd);
            proto::put_u64(b, offset);
            proto::put_bytes(b, data);
        })
    }

    /// Enqueue a seek; the ticket yields the new position.
    pub fn lo_seek(&mut self, fd: u32, whence: u8, offset: i64) -> Result<Ticket<u64>> {
        self.enqueue(Opcode::LoSeek, dec_u64, |b| {
            proto::put_u32(b, fd);
            b.push(whence);
            proto::put_i64(b, offset);
        })
    }

    /// Enqueue a size query.
    pub fn lo_size(&mut self, fd: u32) -> Result<Ticket<u64>> {
        self.enqueue(Opcode::LoSize, dec_u64, |b| proto::put_u32(b, fd))
    }

    /// Enqueue a descriptor close.
    pub fn lo_close(&mut self, fd: u32) -> Result<Ticket<()>> {
        self.enqueue(Opcode::LoClose, dec_unit, |b| proto::put_u32(b, fd))
    }

    /// Enqueue an Inversion read.
    pub fn inv_read(&mut self, path: &str, offset: u64, len: u32) -> Result<Ticket<Vec<u8>>> {
        self.enqueue(Opcode::InvRead, dec_bytes, |b| {
            proto::put_str(b, path);
            proto::put_u64(b, offset);
            proto::put_u32(b, len);
        })
    }

    /// Enqueue an Inversion write.
    pub fn inv_write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<Ticket<()>> {
        self.enqueue(Opcode::InvWrite, dec_unit, |b| {
            proto::put_str(b, path);
            proto::put_u64(b, offset);
            proto::put_bytes(b, data);
        })
    }
}

impl<S: Read + Write> std::fmt::Debug for Pipeline<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("window", &self.window)
            .field("inflight", &self.client.inflight.len())
            .finish_non_exhaustive()
    }
}

impl<S: Read + Write> Drop for Pipeline<'_, S> {
    fn drop(&mut self) {
        // Drain abandoned replies so the wire is clean for sequential
        // use; a transport error here leaves the client broken anyway,
        // so count it and stop.
        while !self.client.inflight.is_empty() {
            if self.client.pump_one().is_err() {
                obs::counter!("client.pipeline.drop_drain_errors").add(1);
                break;
            }
        }
        self.client.completed.clear();
    }
}
