//! lobd's TCP front end: reactor threads over a readiness loop, an
//! executor pool behind them, graceful shutdown.
//!
//! Threading model (see DESIGN.md "Reactor model"): `reactors` threads
//! each own a `Poll` (shims/epoll) and a set of non-blocking
//! connections. Reactor 0 also owns the non-blocking listener and deals
//! accepted sockets round-robin to all reactors through per-reactor
//! inboxes. Reactors do the byte work — incremental frame decode into
//! per-connection buffers, reply flushing — and hand complete frames to
//! a fixed pool of `executor_threads` blocking workers (the old worker
//! pool, surviving as the execution stage). Completions come back to
//! the owning reactor through a per-reactor done-queue plus a wakeup
//! pipe ([`epoll::Waker`]), which also replaced the self-connection
//! shutdown hack.
//!
//! Per session at most one frame executes at a time and queued frames
//! run in arrival order, so protocol pipelining (proto v4 tags) never
//! reorders execution — replies leave in send order and txn semantics
//! are untouched.
//!
//! Shutdown: [`ServerHandle::shutdown`] (or a client `shutdown`
//! request) sets the service flag and wakes every reactor. Reactors
//! stop accepting, notify idle sessions with `ShuttingDown`, let
//! in-flight frames finish, and force-close stragglers after a grace
//! period. Executors exit when the last reactor drops its job-queue
//! sender.

use crate::proto::{self, ErrorCode, FrameError, Opcode, MAGIC, VERSION};
use crate::reactor::{self, Shared};
use crate::service::LobdService;
use parking_lot::{ranks, Mutex};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server tuning knobs, builder-style:
///
/// ```no_run
/// # use pglo_server::ServerConfig;
/// let config = ServerConfig::default()
///     .addr("127.0.0.1:5433")
///     .reactors(2)
///     .executor_threads(16)
///     .max_sessions(16384)
///     .pipeline_window(32);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    reactors: usize,
    executor_threads: usize,
    max_sessions: usize,
    pipeline_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            reactors: 2,
            executor_threads: 16,
            max_sessions: 16384,
            pipeline_window: 32,
        }
    }
}

impl ServerConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Reactor (event-loop) threads. Each owns a share of the
    /// connections; reactor 0 also owns the listener.
    pub fn reactors(mut self, n: usize) -> Self {
        self.reactors = n.max(1);
        self
    }

    /// Executor threads — the cap on concurrently *executing* frames
    /// (connections themselves are only bounded by `max_sessions`).
    pub fn executor_threads(mut self, n: usize) -> Self {
        self.executor_threads = n.max(1);
        self
    }

    /// Hard cap on concurrently admitted connections; accepts beyond it
    /// are dropped (counted as `server.accept.refused`).
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self
    }

    /// Per-session cap on decoded-but-unfinished frames (one executing
    /// plus the rest queued). A client pipelining past it is not
    /// errored; the reactor simply stops draining that socket until
    /// completions catch up.
    pub fn pipeline_window(mut self, n: usize) -> Self {
        self.pipeline_window = n.max(1);
        self
    }

    pub(crate) fn addr_str(&self) -> &str {
        &self.addr
    }

    pub(crate) fn reactor_count(&self) -> usize {
        self.reactors
    }

    pub(crate) fn executor_count(&self) -> usize {
        self.executor_threads
    }

    pub(crate) fn max_session_count(&self) -> usize {
        self.max_sessions
    }

    pub(crate) fn window(&self) -> usize {
        self.pipeline_window
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send a `shutdown` frame) first, then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    service: Arc<LobdService>,
    local_addr: SocketAddr,
    wakers: Vec<epoll::Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<LobdService> {
        &self.service
    }

    /// Request a graceful shutdown: sets the service flag and wakes
    /// every reactor so drain starts immediately, not at the next
    /// poll timeout. In-flight requests complete.
    pub fn shutdown(&self) {
        self.service.request_shutdown();
        for w in &self.wakers {
            soft_error(w.wake());
        }
    }

    /// Block until every reactor and executor has exited. Returns the
    /// shared service so callers can read final statistics.
    pub fn join(mut self) -> Arc<LobdService> {
        for h in self.threads.drain(..) {
            reap(h);
        }
        Arc::clone(&self.service)
    }
}

/// Reap a server thread, counting a panic instead of discarding it: a
/// panicked worker is a served-connection loss the operator should see.
fn reap(h: JoinHandle<()>) {
    if h.join().is_err() {
        obs::counter!("server.worker.panics").add(1);
    }
}

/// Count a failed best-effort network nicety (a courtesy reply to a
/// dying connection, a socket-option tweak, a waker poke) instead of
/// discarding it. These failures are expected under client disconnects,
/// but a rising rate flags network trouble.
pub(crate) fn soft_error<T, E>(res: std::result::Result<T, E>) {
    if res.is_err() {
        obs::counter!("server.net.soft_errors").add(1);
    }
}

/// Bind and start serving. Returns once the listener is live.
pub fn spawn(service: Arc<LobdService>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr_str())?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let n_reactors = config.reactor_count();
    let mut polls = Vec::with_capacity(n_reactors);
    let mut wakers = Vec::with_capacity(n_reactors);
    for _ in 0..n_reactors {
        let mut poll = epoll::Poll::new()?;
        let waker = epoll::Waker::new(&mut poll, epoll::Token(reactor::TOKEN_WAKER))?;
        polls.push(poll);
        wakers.push(waker);
    }

    let shared = Arc::new(Shared {
        service: Arc::clone(&service),
        wakers: wakers.clone(),
        inboxes: (0..n_reactors)
            .map(|_| Mutex::with_rank(Vec::new(), ranks::SERVER_REACTOR_INBOX))
            .collect(),
        done: (0..n_reactors)
            .map(|_| Mutex::with_rank(Vec::new(), ranks::SERVER_REACTOR_DONE))
            .collect(),
        conns: AtomicUsize::new(0),
        max_sessions: config.max_session_count(),
        pipeline_window: config.window(),
    });

    let (job_tx, job_rx) = mpsc::channel::<reactor::Job>();
    let job_rx = Arc::new(Mutex::with_rank(job_rx, ranks::SERVER_EXEC_QUEUE));

    let mut threads = Vec::with_capacity(n_reactors + config.executor_count());
    for i in 0..config.executor_count() {
        let rx = Arc::clone(&job_rx);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("lobd-exec-{i}"))
                .spawn(move || reactor::executor_loop(&shared, &rx))?,
        );
    }
    for (idx, poll) in polls.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let jobs = job_tx.clone();
        let listener = if idx == 0 { Some(listener.try_clone()?) } else { None };
        threads.push(
            std::thread::Builder::new()
                .name(format!("lobd-reactor-{idx}"))
                .spawn(move || reactor::reactor_loop(idx, poll, listener, shared, jobs))?,
        );
    }
    // The reactors hold the only senders now; executors exit when the
    // last reactor drops its clone.
    drop(job_tx);

    Ok(ServerHandle { service, local_addr, wakers, threads })
}

/// What the server does with a client's 5-byte hello.
pub(crate) enum Hello {
    /// Not a lobd client: close without a byte.
    Reject,
    /// Send the queued refusal, then close.
    Refuse,
    /// Send the queued hello and serve frames.
    Serve,
}

/// Decide the handshake — the one place either transport does — and
/// append whatever the server says in return to `out`. Anything that
/// opens with [`MAGIC`] is answered `MAGIC ++ VERSION`, so a client can
/// tell "wrong version" from "not a lobd server"; a hello at another
/// version, or one arriving during shutdown, then gets a tag-0 error
/// frame and a close.
pub(crate) fn answer_hello(hello: &[u8; 5], shutting_down: bool, out: &mut Vec<u8>) -> Hello {
    if &hello[..4] != MAGIC {
        return Hello::Reject;
    }
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    let (code, msg) = if hello[4] != VERSION {
        (ErrorCode::BadVersion, format!("unsupported protocol version {}", hello[4]))
    } else if shutting_down {
        (ErrorCode::ShuttingDown, SHUTTING_DOWN.to_string())
    } else {
        return Hello::Serve;
    };
    proto::encode_frame_into(out, 0, code as u8, msg.as_bytes());
    Hello::Refuse
}

/// Message of every `ShuttingDown` notice.
pub(crate) const SHUTTING_DOWN: &str = "server is shutting down";

/// The best-effort tag-0 `Malformed` reply to a lying length prefix:
/// after it the stream can no longer be trusted to frame correctly, so
/// the caller closes.
pub(crate) fn encode_bad_length(out: &mut Vec<u8>, len: u32) {
    let msg = FrameError::BadLength(len).to_string();
    proto::encode_frame_into(out, 0, ErrorCode::Malformed as u8, msg.as_bytes());
}

/// Hand the frames queued in `bytes` to the transport in one write.
fn write_frames<S: Write>(stream: &mut S, bytes: &[u8]) -> io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}

/// Serve one connection over a blocking transport (the in-process
/// loopback): the same handshake decision, frame codec and dispatch as
/// the reactor path, one frame at a time until EOF.
pub fn serve_stream<S: Read + Write>(service: &Arc<LobdService>, stream: &mut S) {
    let mut hello = [0u8; 5];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    let mut wbuf = Vec::new();
    let verdict = answer_hello(&hello, service.shutting_down(), &mut wbuf);
    if matches!(verdict, Hello::Reject) {
        return;
    }
    if write_frames(stream, &wbuf).is_err() || !matches!(verdict, Hello::Serve) {
        return;
    }
    let mut session = service.session_opened();
    let mut rbuf = Vec::new();
    loop {
        wbuf.clear();
        match proto::read_frame(stream, &mut rbuf) {
            Ok((tag, opcode, payload)) => {
                let (status, reply) = service.handle_frame(&mut session, opcode, &payload);
                proto::encode_frame_into(&mut wbuf, tag, status, &reply);
                if write_frames(stream, &wbuf).is_err() {
                    break;
                }
                if Opcode::from_u8(opcode) == Some(Opcode::Shutdown) && status == 0 {
                    break;
                }
            }
            Err(FrameError::BadLength(n)) => {
                encode_bad_length(&mut wbuf, n);
                soft_error(write_frames(stream, &wbuf));
                break;
            }
            // Clean close or torn frame: nothing to say, just clean up.
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => break,
        }
    }
    service.session_closed(&mut session);
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::collections::VecDeque;

    /// A transport that replays scripted bytes to the reader and counts
    /// the `write` calls it receives.
    struct Scripted {
        incoming: VecDeque<u8>,
        writes: usize,
    }

    impl Scripted {
        /// The peer's side of a conversation: its hello, then one frame
        /// per payload with tags 1, 2, ... and the given code byte.
        fn new(code: u8, payloads: &[&[u8]]) -> Self {
            let mut bytes = MAGIC.to_vec();
            bytes.push(VERSION);
            for (i, payload) in payloads.iter().enumerate() {
                proto::encode_frame_into(&mut bytes, i as u32 + 1, code, payload);
            }
            Scripted { incoming: bytes.into(), writes: 0 }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.incoming.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A frame leaves in one `write`, whatever its payload: the hello,
    /// then one per request on the client and one per reply on the
    /// blocking server.
    #[test]
    fn a_frame_is_one_write() {
        let big = vec![7u8; 100_000];
        let pings: [&[u8]; 3] = [b"", b"ping", &big];

        // The server's side scripted: OK (status 0) echoes of the pings.
        let mut client = Client::handshake(Scripted::new(0, &pings)).unwrap();
        for payload in pings {
            assert_eq!(client.ping(payload).unwrap(), payload);
        }
        assert_eq!(client.into_inner().writes, 1 + pings.len(), "hello + one write per request");

        // The client's side scripted: the pings themselves, then EOF.
        let dir = tempfile::tempdir().unwrap();
        let service = LobdService::open(dir.path()).unwrap();
        let mut transport = Scripted::new(Opcode::Ping as u8, &pings);
        serve_stream(&service, &mut transport);
        assert_eq!(transport.writes, 1 + pings.len(), "hello + one write per reply");
        assert_eq!(service.session_count(), 0);
    }
}
