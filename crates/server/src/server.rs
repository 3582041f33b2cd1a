//! lobd's TCP front end: an acceptor, socket-owning workers, graceful
//! shutdown.
//!
//! Threading model (see DESIGN.md "Reactor model"): `executor_threads`
//! workers each own a `Poll` (shims/epoll), a waker, an inbox and a
//! private set of non-blocking connections. A connection and its session
//! belong to one worker for life: the thread that reads a frame executes
//! it and writes the reply (`worker::Conn::round`), so frames of a
//! session run in arrival order and replies leave in send order by
//! construction, and every whole frame a read delivers runs back to back
//! with the replies leaving in one write. One acceptor thread
//! (`reactor.rs`) owns the listener and deals admitted sockets
//! round-robin into the workers' inboxes.
//!
//! The price: a frame that blocks (a pool miss, a commit fsync, a 4 MiB
//! import) delays the other sessions of its worker — one in
//! `executor_threads` of them — until it ends. No lobd op waits on
//! another session, so sharing a thread cannot deadlock.
//!
//! Shutdown: [`ServerHandle::shutdown`] (or a client `shutdown` request)
//! sets the service flag and wakes every thread. The acceptor drops the
//! listener; workers notify idle sessions with `ShuttingDown`, run the
//! frames already received, and force-close stragglers after a grace
//! period.

use crate::proto::{self, ErrorCode, FrameError, MAGIC, VERSION};
use crate::reactor;
use crate::service::LobdService;
use crate::worker::{self, Conn, Round};
use parking_lot::{ranks, Mutex};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server tuning knobs, builder-style:
///
/// ```no_run
/// # use pglo_server::ServerConfig;
/// let config = ServerConfig::default()
///     .addr("127.0.0.1:5433")
///     .executor_threads(16)
///     .max_sessions(16384)
///     .pipeline_window(32);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    executor_threads: usize,
    max_sessions: usize,
    pipeline_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
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

    /// Worker threads. Each owns a share of the connections and executes
    /// their frames, so this is also the cap on concurrently *executing*
    /// frames (connections themselves are only bounded by `max_sessions`).
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

    /// The fairness bound on pipelining: at most this many frames of one
    /// session run per readiness round before its worker serves the next
    /// ready session. A client pipelining past it is not errored; the
    /// rest of its frames run in the following rounds.
    pub fn pipeline_window(mut self, n: usize) -> Self {
        self.pipeline_window = n.max(1);
        self
    }
}

/// State shared by the acceptor and every worker.
pub(crate) struct Shared {
    pub service: Arc<LobdService>,
    /// One waker per worker, index-aligned with `inboxes`, then the
    /// acceptor's.
    pub wakers: Vec<epoll::Waker>,
    /// Freshly accepted sockets awaiting adoption, per worker.
    pub inboxes: Vec<Mutex<Vec<TcpStream>>>,
    /// Admitted (accepted, not yet closed) connections across workers.
    pub conns: AtomicUsize,
    pub max_sessions: usize,
    pub pipeline_window: usize,
}

impl Shared {
    /// Poke every thread's poll.
    pub fn wake_all(&self) {
        for w in &self.wakers {
            soft_error(w.wake());
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send a `shutdown` frame) first, then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<LobdService> {
        &self.shared.service
    }

    /// Request a graceful shutdown: sets the service flag and wakes
    /// every thread so drain starts immediately, not at the next poll
    /// timeout. Frames already received complete.
    pub fn shutdown(&self) {
        self.shared.service.request_shutdown();
        self.shared.wake_all();
    }

    /// Block until the acceptor and every worker have exited. Returns
    /// the shared service so callers can read final statistics.
    pub fn join(mut self) -> Arc<LobdService> {
        for h in self.threads.drain(..) {
            reap(h);
        }
        Arc::clone(&self.shared.service)
    }
}

/// Reap a server thread, counting a panic instead of discarding it: a
/// panicked worker is a served-connection loss the operator should see.
fn reap(h: JoinHandle<()>) {
    if h.join().is_err() {
        obs::counter!("server.worker.panics").add(1);
    }
}

/// Count a failed best-effort network nicety (a socket-option tweak, a
/// waker poke, a deregistration) instead of discarding it. These
/// failures are expected under client disconnects, but a rising rate
/// flags network trouble.
pub(crate) fn soft_error<T, E>(res: std::result::Result<T, E>) {
    if res.is_err() {
        obs::counter!("server.net.soft_errors").add(1);
    }
}

/// Bind and start serving. Returns once the listener is live.
pub fn spawn(service: Arc<LobdService>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // A poll and its waker per worker, then the acceptor's.
    let poll_and_waker = || -> io::Result<(epoll::Poll, epoll::Waker)> {
        let mut poll = epoll::Poll::new()?;
        let waker = epoll::Waker::new(&mut poll, epoll::Token(worker::TOKEN_WAKER))?;
        Ok((poll, waker))
    };
    let workers = config.executor_threads;
    let mut polls = Vec::with_capacity(workers);
    let mut wakers = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let (poll, waker) = poll_and_waker()?;
        polls.push(poll);
        wakers.push(waker);
    }
    let (acceptor_poll, acceptor_waker) = poll_and_waker()?;
    wakers.push(acceptor_waker);
    let shared = Arc::new(Shared {
        service,
        wakers,
        inboxes: (0..workers)
            .map(|_| Mutex::with_rank(Vec::new(), ranks::SERVER_WORKER_INBOX))
            .collect(),
        conns: AtomicUsize::new(0),
        max_sessions: config.max_sessions,
        pipeline_window: config.pipeline_window,
    });

    let mut threads = Vec::with_capacity(workers + 1);
    for (idx, poll) in polls.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("lobd-worker-{idx}"))
                .spawn(move || worker::worker_loop(idx, poll, shared))?,
        );
    }
    let for_acceptor = Arc::clone(&shared);
    threads.push(
        std::thread::Builder::new()
            .name("lobd-acceptor".into())
            .spawn(move || reactor::acceptor_loop(acceptor_poll, listener, for_acceptor))?,
    );
    Ok(ServerHandle { shared, local_addr, threads })
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

/// Serve one connection over a blocking transport (the in-process
/// loopback): the workers' frame loop, fed by blocking reads until EOF.
pub fn serve_stream<S: Read + Write>(service: &Arc<LobdService>, stream: &mut S) {
    let mut conn = Conn::new(stream);
    let mut scratch = vec![0; worker::READ_CHUNK];
    while !matches!(conn.round(service, &mut scratch, usize::MAX, true), Round::Close) {}
    conn.finish(service);
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::Opcode;
    use std::collections::VecDeque;

    /// A transport that replays the peer's scripted sends, one per `read`
    /// (or as much of one as the buffer holds), and counts the calls it
    /// receives.
    struct Scripted {
        incoming: VecDeque<Vec<u8>>,
        reads: usize,
        writes: usize,
    }

    impl Scripted {
        /// The peer's side of a conversation: its hello, then one frame
        /// per payload with tags 1, 2, ... and the given code byte —
        /// each sent on its own, or (`burst`) all frames in one send.
        fn new(code: u8, payloads: &[&[u8]], burst: bool) -> Self {
            let mut hello = MAGIC.to_vec();
            hello.push(VERSION);
            let frames = payloads.iter().enumerate().map(|(i, payload)| {
                let mut frame = Vec::new();
                proto::encode_frame_into(&mut frame, i as u32 + 1, code, payload);
                frame
            });
            let mut incoming = VecDeque::from([hello]);
            if burst {
                incoming.push_back(frames.flatten().collect());
            } else {
                incoming.extend(frames);
            }
            Scripted { incoming, reads: 0, writes: 0 }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(mut send) = self.incoming.pop_front() else { return Ok(0) };
            let n = send.len().min(buf.len());
            buf[..n].copy_from_slice(&send[..n]);
            if n < send.len() {
                self.incoming.push_front(send.split_off(n));
            }
            Ok(n)
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

    /// A frame leaves in one `write`, whatever its payload, and a request
    /// that fits the read chunk arrives in one `read`: the hello, then one
    /// of each per request on the server — the syscalls of a request are
    /// `read`, `write`, nothing else.
    #[test]
    fn a_frame_is_one_write() {
        let big = vec![7u8; 100_000];
        let pings: [&[u8]; 3] = [b"", b"ping", &big];

        // The server's side scripted: OK (status 0) echoes of the pings.
        let mut client = Client::handshake(Scripted::new(0, &pings, false)).unwrap();
        for payload in pings {
            assert_eq!(client.ping(payload).unwrap(), payload);
        }
        assert_eq!(client.into_inner().writes, 1 + pings.len(), "hello + one write per request");

        // The client's side scripted: the pings themselves, then EOF.
        let dir = tempfile::tempdir().unwrap();
        let service = LobdService::open(dir.path()).unwrap();
        let mut transport = Scripted::new(Opcode::Ping as u8, &pings, false);
        serve_stream(&service, &mut transport);
        assert_eq!(transport.writes, 1 + pings.len(), "hello + one write per reply");
        assert_eq!(transport.reads, 1 + pings.len() + 1, "hello + one read per request + EOF");
        assert_eq!(service.session_count(), 0);
    }

    /// Pipelining is batching: frames that arrive together run back to
    /// back and their replies leave together.
    #[test]
    fn a_burst_of_frames_is_one_write() {
        let dir = tempfile::tempdir().unwrap();
        let service = LobdService::open(dir.path()).unwrap();
        let pings: Vec<Vec<u8>> = (0..64u8).map(|k| vec![k; 100]).collect();
        let pings: Vec<&[u8]> = pings.iter().map(Vec::as_slice).collect();
        let mut transport = Scripted::new(Opcode::Ping as u8, &pings, true);
        serve_stream(&service, &mut transport);
        assert_eq!((transport.reads, transport.writes), (3, 2), "hello, the burst (and EOF)");
    }
}
