//! The readiness loop behind [`crate::server::spawn`]: per-reactor
//! connection ownership, incremental frame decode, and the
//! reactor↔executor handoff.
//!
//! Ownership rules (normative; DESIGN.md "Reactor model"):
//!
//! * A connection belongs to exactly one reactor for its whole life.
//!   Only that reactor touches its socket, buffers, and registration.
//! * The connection's [`Session`] lives inside the reactor's `Conn`
//!   *except* while a frame is executing, when it travels inside the
//!   [`Job`] to an executor and comes back inside the [`Completion`].
//!   At most one frame per session is in flight, so the session is
//!   never shared — it moves.
//! * Cross-thread traffic is three queues, each locked only around
//!   push/drain (never across I/O): the per-reactor inbox of freshly
//!   accepted sockets (`server.reactor_inbox`), the global job queue
//!   (`server.exec_queue`), and the per-reactor done queue
//!   (`server.reactor_done`). Every push is followed by a waker poke.

use crate::proto::{self, ErrorCode, FrameError, Opcode, MAX_FRAME};
use crate::server::{answer_hello, encode_bad_length, soft_error, Hello, SHUTTING_DOWN};
use crate::service::LobdService;
use crate::session::Session;
use epoll::{Events, Interest, Poll, Token};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Waker registration token (one per reactor `Poll`).
pub(crate) const TOKEN_WAKER: usize = 0;
/// Listener token (reactor 0 only).
const TOKEN_LISTENER: usize = 1;
/// First connection token.
const TOKEN_BASE: usize = 2;

/// Idle poll timeout: an upper bound on how late a reactor notices the
/// shutdown flag if every waker poke was lost.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);
/// Poll timeout while draining for shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(25);
/// How long a drain waits for idle-but-open connections (those with
/// undelivered bytes or half-read frames) before force-closing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);
/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// State shared by every reactor and executor.
pub(crate) struct Shared {
    pub service: Arc<LobdService>,
    /// One waker per reactor, index-aligned with `inboxes`/`done`.
    pub wakers: Vec<epoll::Waker>,
    /// Freshly accepted sockets awaiting adoption, per reactor.
    pub inboxes: Vec<Mutex<Vec<TcpStream>>>,
    /// Finished jobs awaiting reply encoding, per reactor.
    pub done: Vec<Mutex<Vec<Completion>>>,
    /// Admitted (accepted, not yet closed) connections across reactors.
    pub conns: AtomicUsize,
    pub max_sessions: usize,
    pub pipeline_window: usize,
}

/// Work travelling to an executor. Frames carry the session out and
/// back; teardowns carry it out for good — session close runs service
/// and store code (temp GC, txn abort) that may take locks, which the
/// reactor thread must never do.
pub(crate) enum Job {
    Frame { reactor: usize, token: usize, tag: u32, opcode: u8, payload: Vec<u8>, session: Session },
    Teardown { session: Session },
}

/// A finished frame travelling back to the owning reactor.
pub(crate) struct Completion {
    token: usize,
    tag: u32,
    opcode: u8,
    status: u8,
    reply: Vec<u8>,
    session: Session,
}

/// Blocking execution stage: pull a job, run it through the service,
/// hand the completion back to the owning reactor. Exits when every
/// reactor has dropped its sender.
pub(crate) fn executor_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the queue lock only to pull one job; the blocking recv
        // itself parks here holding nothing else.
        let job = {
            let rx = rx.lock();
            rx.recv()
        };
        let Ok(job) = job else { return };
        let (reactor, token, tag, opcode, payload, mut session) = match job {
            Job::Frame { reactor, token, tag, opcode, payload, session } => {
                (reactor, token, tag, opcode, payload, session)
            }
            Job::Teardown { mut session } => {
                shared.service.session_closed(&mut session);
                continue;
            }
        };
        let (status, reply) = shared.service.handle_frame(&mut session, opcode, &payload);
        let completion = Completion { token, tag, opcode, status, reply, session };
        {
            shared.done[reactor].lock().push(completion);
        }
        soft_error(shared.wakers[reactor].wake());
    }
}

enum ConnState {
    /// Waiting for the 5-byte `MAGIC ++ version` hello.
    Handshaking,
    /// Hello exchanged; frames flow.
    Serving,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Undecoded inbound bytes.
    rbuf: Vec<u8>,
    /// Encoded outbound bytes not yet written; `wpos` marks progress.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Present except while a frame of this session is executing.
    session: Option<Session>,
    /// A frame is at (or on its way to / back from) an executor.
    in_flight: bool,
    /// Decoded frames waiting their turn (FIFO — execution order is
    /// arrival order).
    pending: VecDeque<(u32, u8, Vec<u8>)>,
    /// Readable interest withdrawn: the pipeline window is full.
    read_paused: bool,
    /// Flush `wbuf`, then close.
    close_after_flush: bool,
    /// Peer is gone (EOF / I/O error); close as soon as no frame is in
    /// flight.
    peer_gone: bool,
    /// The stream lied about framing; stop decoding entirely.
    poisoned: bool,
    /// Interest currently registered with the poll.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::Handshaking,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            session: None,
            in_flight: false,
            pending: VecDeque::new(),
            read_paused: false,
            close_after_flush: false,
            peer_gone: false,
            poisoned: false,
            interest: Interest::READABLE,
        }
    }

    /// Frames decoded but not finished (executing + queued).
    fn outstanding(&self) -> usize {
        self.pending.len() + usize::from(self.in_flight)
    }

    fn queue_reply(&mut self, tag: u32, code: u8, payload: &[u8]) {
        proto::encode_frame_into(&mut self.wbuf, tag, code, payload);
    }

    /// Queue the tag-0 notice an idle session gets when the server drains.
    fn queue_shutting_down(&mut self) {
        self.queue_reply(0, ErrorCode::ShuttingDown as u8, SHUTTING_DOWN.as_bytes());
    }

    /// Flush as much of `wbuf` as the socket will take. Returns false if
    /// the connection broke.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.peer_gone = true;
                    return false;
                }
                Ok(n) => self.wpos += n,
                Err(e) if crate::server::is_timeout(&e) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    return false;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// The interest this connection wants right now.
    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        let draining = self.close_after_flush || self.peer_gone || self.poisoned;
        if !draining && !self.read_paused {
            want = want | Interest::READABLE;
        }
        if !self.flushed() {
            want = want | Interest::WRITABLE;
        }
        want
    }
}

/// What to do with a connection after an event was handled.
enum Verdict {
    Keep,
    Close,
}

struct Reactor {
    idx: usize,
    shared: Arc<Shared>,
    jobs: Sender<Job>,
    poll: Poll,
    listener: Option<TcpListener>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    /// Round-robin cursor for dealing accepted sockets to reactors.
    rr: usize,
    /// Set once this reactor has observed the shutdown flag and begun
    /// draining.
    draining_since: Option<Instant>,
}

/// Run one reactor until shutdown completes. `listener` is `Some` only
/// for reactor 0.
pub(crate) fn reactor_loop(
    idx: usize,
    poll: Poll,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    jobs: Sender<Job>,
) {
    let mut r = Reactor {
        idx,
        shared,
        jobs,
        poll,
        listener,
        conns: HashMap::new(),
        next_token: TOKEN_BASE,
        rr: 0,
        draining_since: None,
    };
    if let Some(listener) = &r.listener {
        use std::os::unix::io::AsRawFd;
        if r.poll.register(listener.as_raw_fd(), Token(TOKEN_LISTENER), Interest::READABLE).is_err()
        {
            // Without a registered listener this reactor can still serve
            // adopted connections; accepts are lost, which the spawn-time
            // register (same call, same fd) would have caught first.
            soft_error::<(), ()>(Err(()));
        }
    }
    let mut events = Events::with_capacity(1024);
    loop {
        let timeout = if r.draining_since.is_some() { DRAIN_TIMEOUT } else { POLL_TIMEOUT };
        if let Err(e) = r.poll.poll(&mut events, Some(timeout)) {
            soft_error::<(), io::Error>(Err(e));
            // LINT: allow(R12, poll itself failed so nothing is being served; the backoff keeps a broken poll fd from becoming a hot error loop)
            std::thread::sleep(DRAIN_TIMEOUT);
        }
        let mut accept_ready = false;
        let mut touched: Vec<(usize, bool, bool)> = Vec::with_capacity(events.len());
        for ev in events.iter() {
            match ev.token().0 {
                TOKEN_WAKER => {}
                TOKEN_LISTENER => accept_ready = true,
                t => {
                    touched.push((t, ev.is_readable() || ev.is_closed_or_error(), ev.is_writable()))
                }
            }
        }
        for (token, readable, writable) in touched {
            r.on_conn_event(token, readable, writable);
        }
        r.adopt_newcomers();
        r.drain_completions();
        if accept_ready {
            r.do_accept();
        }
        if r.shared.service.shutting_down() {
            r.drain_for_shutdown();
            if r.conns.is_empty() {
                return;
            }
        }
    }
}

impl Reactor {
    // ---- accept & adoption -------------------------------------------

    /// Accept until the listener would block, dealing sockets round-robin
    /// across reactors.
    fn do_accept(&mut self) {
        if self.draining_since.is_some() {
            return;
        }
        let n_reactors = self.shared.wakers.len();
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.conns.load(Ordering::SeqCst) >= self.shared.max_sessions {
                        obs::counter!("server.accept.refused").add(1);
                        drop(stream);
                        continue;
                    }
                    self.shared.conns.fetch_add(1, Ordering::SeqCst);
                    soft_error(stream.set_nodelay(true));
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let target = self.rr % n_reactors;
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        let unplaced = match self.shared.inboxes[target].try_lock() {
                            Some(mut inbox) => {
                                inbox.push(stream);
                                None
                            }
                            None => Some(stream),
                        };
                        match unplaced {
                            None => soft_error(self.shared.wakers[target].wake()),
                            // Contended: the target is draining its inbox
                            // right now; adopt locally rather than block
                            // the accept path on its lock.
                            Some(stream) => self.adopt(stream),
                        }
                    }
                }
                Err(e) if crate::server::is_timeout(&e) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    soft_error::<(), io::Error>(Err(e));
                    return;
                }
            }
        }
    }

    /// Register sockets other reactors dealt to us. Contended try_lock
    /// is fine to skip: the pusher holds the lock only around a push
    /// and pokes our waker after releasing it, so we retry on that
    /// wakeup.
    fn adopt_newcomers(&mut self) {
        let newcomers = match self.shared.inboxes[self.idx].try_lock() {
            Some(mut inbox) => std::mem::take(&mut *inbox),
            None => return,
        };
        for stream in newcomers {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        use std::os::unix::io::AsRawFd;
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn::new(stream);
        if self.poll.register(conn.stream.as_raw_fd(), Token(token), conn.interest).is_err() {
            self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(token, conn);
        // The socket may already hold bytes (fast client); poll is
        // level-triggered, so the next poll reports it — nothing to do.
    }

    // ---- event handling ----------------------------------------------

    fn on_conn_event(&mut self, token: usize, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        let verdict = self.handle_conn(token, &mut conn, readable, writable);
        self.finish_conn_round(token, conn, verdict);
    }

    /// Re-sync interest and either keep or retire the connection after a
    /// round of work on it.
    fn finish_conn_round(&mut self, token: usize, mut conn: Conn, verdict: Verdict) {
        use std::os::unix::io::AsRawFd;
        let close = match verdict {
            Verdict::Close => {
                // A frame travelling through the executor still owns the
                // session; defer the close until it comes back.
                if conn.in_flight {
                    conn.peer_gone = true;
                    false
                } else {
                    true
                }
            }
            Verdict::Keep => false,
        };
        if close {
            self.retire(&mut conn);
            return;
        }
        let want = conn.desired_interest();
        if want != conn.interest {
            if self.poll.reregister(conn.stream.as_raw_fd(), Token(token), want).is_err() {
                self.retire(&mut conn);
                return;
            }
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    /// Final teardown: deregister, ship any orphaned session state to
    /// an executor for closing, release the admission slot.
    fn retire(&mut self, conn: &mut Conn) {
        use std::os::unix::io::AsRawFd;
        soft_error(self.poll.deregister(conn.stream.as_raw_fd()));
        if let Some(session) = conn.session.take() {
            if let Err(err) = self.jobs.send(Job::Teardown { session }) {
                // Executors are gone (shutdown tail); close inline —
                // nothing else runs, so the locks close takes are free.
                if let Job::Teardown { mut session } = err.0 {
                    // LINT: allow(R12, shutdown-tail fallback: the send failed because every executor exited; the inline close cannot contend with anything)
                    self.shared.service.session_closed(&mut session);
                }
            }
        }
        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
    }

    fn handle_conn(
        &mut self,
        token: usize,
        conn: &mut Conn,
        readable: bool,
        writable: bool,
    ) -> Verdict {
        if writable && !conn.flush() {
            return Verdict::Close;
        }
        if readable {
            let alive = fill_rbuf(conn);
            // Decode what arrived before checking for EOF, so frames the
            // client sent right before closing still execute.
            if let Verdict::Close = self.pump(token, conn) {
                return Verdict::Close;
            }
            if !alive {
                // Peer hung up. An executing frame's session is at the
                // executor and must come home before teardown (which
                // aborts any orphaned txn); queued-but-unstarted frames
                // are dropped with the connection.
                if !conn.in_flight {
                    return Verdict::Close;
                }
                conn.peer_gone = true;
            }
        }
        if conn.close_after_flush && conn.flushed() && !conn.in_flight && conn.pending.is_empty() {
            return Verdict::Close;
        }
        if conn.peer_gone && conn.outstanding() == 0 {
            return Verdict::Close;
        }
        Verdict::Keep
    }

    /// Decode and dispatch everything `rbuf` holds, respecting the
    /// handshake state and the pipeline window.
    fn pump(&mut self, token: usize, conn: &mut Conn) -> Verdict {
        loop {
            if conn.poisoned || conn.close_after_flush {
                return Verdict::Keep;
            }
            if let ConnState::Handshaking = conn.state {
                let Some(hello) = conn.rbuf.first_chunk::<5>() else { return Verdict::Keep };
                let shutting_down = self.shared.service.shutting_down();
                match answer_hello(hello, shutting_down, &mut conn.wbuf) {
                    Hello::Reject => return Verdict::Close,
                    Hello::Refuse => conn.close_after_flush = true,
                    Hello::Serve => {
                        conn.session = Some(self.shared.service.session_opened());
                        conn.state = ConnState::Serving;
                    }
                }
                conn.rbuf.drain(..5);
                conn.flush();
                continue;
            }
            if conn.outstanding() >= self.shared.pipeline_window {
                conn.read_paused = true;
                return Verdict::Keep;
            }
            conn.read_paused = false;
            match proto::decode_frame(&conn.rbuf) {
                Ok(None) => return Verdict::Keep,
                Ok(Some((consumed, tag, opcode, payload))) => {
                    conn.rbuf.drain(..consumed);
                    if conn.in_flight {
                        conn.pending.push_back((tag, opcode, payload));
                    } else {
                        self.submit(token, conn, tag, opcode, payload);
                    }
                }
                Err(FrameError::BadLength(n)) => {
                    // The stream can no longer be trusted to frame
                    // correctly; reply best-effort and close once
                    // everything already decoded has drained.
                    encode_bad_length(&mut conn.wbuf, n);
                    conn.rbuf.clear();
                    conn.poisoned = true;
                    if conn.outstanding() == 0 {
                        conn.close_after_flush = true;
                    }
                    if !conn.flush() {
                        return Verdict::Close;
                    }
                    return Verdict::Keep;
                }
                Err(FrameError::Eof) | Err(FrameError::Io(_)) => return Verdict::Close,
            }
        }
    }

    /// Hand one frame to the executors, moving the session into the job.
    fn submit(&mut self, token: usize, conn: &mut Conn, tag: u32, opcode: u8, payload: Vec<u8>) {
        let Some(session) = conn.session.take() else {
            // Session lost track — a server bug, not a client one; drop
            // the connection rather than serve it stateless.
            conn.peer_gone = true;
            return;
        };
        conn.in_flight = true;
        let job = Job::Frame { reactor: self.idx, token, tag, opcode, payload, session };
        if self.jobs.send(job).is_err() {
            // Executors are gone (shutdown tail); the session moved into
            // the dropped job and is lost with it.
            conn.in_flight = false;
            conn.peer_gone = true;
        }
    }

    /// Apply completions the executors pushed to our done queue.
    /// Contended try_lock is fine to skip: the executor holds the lock
    /// only around a push and pokes our waker after releasing it.
    fn drain_completions(&mut self) {
        let completions = match self.shared.done[self.idx].try_lock() {
            Some(mut done) => std::mem::take(&mut *done),
            None => return,
        };
        for c in completions {
            self.on_complete(c);
        }
    }

    fn on_complete(&mut self, c: Completion) {
        let Some(mut conn) = self.conns.remove(&c.token) else { return };
        conn.in_flight = false;
        conn.session = Some(c.session);
        if conn.peer_gone {
            self.retire(&mut conn);
            return;
        }
        conn.queue_reply(c.tag, c.status, &c.reply);
        if !conn.flush() {
            self.finish_conn_round(c.token, conn, Verdict::Close);
            return;
        }
        if Opcode::from_u8(c.opcode) == Some(Opcode::Shutdown) && c.status == 0 {
            // The service flag is already set (the handler set it);
            // wake the other reactors so they start draining now.
            conn.close_after_flush = true;
            for (i, w) in self.shared.wakers.iter().enumerate() {
                if i != self.idx {
                    soft_error(w.wake());
                }
            }
        }
        // Pump the next queued frame (or freshly unblocked bytes).
        if let Some((tag, opcode, payload)) = conn.pending.pop_front() {
            self.submit(c.token, &mut conn, tag, opcode, payload);
        }
        let verdict = if conn.poisoned && conn.outstanding() == 0 {
            conn.close_after_flush = true;
            Verdict::Keep
        } else if !conn.in_flight && !conn.close_after_flush && !conn.poisoned {
            conn.read_paused = false;
            self.pump(c.token, &mut conn)
        } else {
            Verdict::Keep
        };
        // Re-run the close checks from handle_conn's tail.
        let verdict = match verdict {
            Verdict::Close => Verdict::Close,
            Verdict::Keep => {
                let drained = !conn.in_flight && conn.pending.is_empty();
                if (conn.close_after_flush && conn.flushed() && drained)
                    || (conn.peer_gone && drained)
                {
                    Verdict::Close
                } else {
                    Verdict::Keep
                }
            }
        };
        self.finish_conn_round(c.token, conn, verdict);
    }

    // ---- shutdown -----------------------------------------------------

    /// Progress the shutdown drain: stop accepting, notify idle
    /// sessions, force-close stragglers after the grace period.
    fn drain_for_shutdown(&mut self) {
        use std::os::unix::io::AsRawFd;
        if self.draining_since.is_none() {
            self.draining_since = Some(Instant::now());
            if let Some(listener) = self.listener.take() {
                soft_error(self.poll.deregister(listener.as_raw_fd()));
            }
            // Connections still waiting in the inbox never served a
            // frame; close them outright. On a contended try_lock the
            // pusher's waker poke retries us: adopt_newcomers picks the
            // sockets up next iteration and the passes below close them.
            if let Some(mut inbox) = self.shared.inboxes[self.idx].try_lock() {
                for stream in std::mem::take(&mut *inbox) {
                    drop(stream);
                    self.shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Notify every idle session once.
            let tokens: Vec<usize> = self.conns.keys().copied().collect();
            for token in tokens {
                let Some(mut conn) = self.conns.remove(&token) else { continue };
                let verdict = if conn.outstanding() == 0 && !conn.close_after_flush {
                    match conn.state {
                        ConnState::Serving => conn.queue_shutting_down(),
                        ConnState::Handshaking => {}
                    }
                    conn.close_after_flush = true;
                    if conn.flush() && !conn.flushed() {
                        Verdict::Keep
                    } else {
                        Verdict::Close
                    }
                } else {
                    Verdict::Keep
                };
                self.finish_conn_round(token, conn, verdict);
            }
            return;
        }
        let grace_over = self.draining_since.map(|t| t.elapsed() > SHUTDOWN_GRACE).unwrap_or(false);
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else { continue };
            let verdict = if conn.in_flight {
                // Never cut an executing frame loose — its session is at
                // the executor and must come home.
                Verdict::Keep
            } else if grace_over || (conn.close_after_flush && conn.flushed()) {
                Verdict::Close
            } else if conn.outstanding() == 0 && !conn.close_after_flush {
                // Session went idle after the notify pass (its last
                // completion landed since): notify + close.
                if let ConnState::Serving = conn.state {
                    conn.queue_shutting_down();
                }
                conn.close_after_flush = true;
                conn.flush();
                if conn.flushed() {
                    Verdict::Close
                } else {
                    Verdict::Keep
                }
            } else {
                Verdict::Keep
            };
            self.finish_conn_round(token, conn, verdict);
        }
    }
}

/// Read everything the socket has. Returns false on EOF or error.
fn fill_rbuf(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        // Don't buffer unboundedly past the pipeline window: between the
        // window's worth of undecoded frames and one max frame, this
        // caps per-conn memory (level-triggered polling re-delivers the
        // readable event, so leftover socket bytes are not lost).
        if conn.rbuf.len() > MAX_FRAME as usize + 4 + READ_CHUNK {
            return true;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if crate::server::is_timeout(&e) => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}
