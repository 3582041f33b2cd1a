//! Socket-owning workers, and the frame loop they share with the
//! loopback.
//!
//! Ownership rules (normative; DESIGN.md "Reactor model"):
//!
//! * A connection, its buffers and its [`Session`] belong to one worker
//!   from the acceptor's deal to teardown. A frame is read, executed
//!   through [`LobdService::handle_frame_into`] and its reply written by
//!   that thread — `epoll_wait`, `read`, execute, `write` — so execution
//!   is in arrival order and replies leave in send order by construction.
//! * The only cross-thread traffic is the per-worker inbox of freshly
//!   accepted sockets (`server.worker_inbox`), locked only around a push
//!   or a take and followed by a waker poke.
//! * [`Conn::round`] is the whole per-connection state machine —
//!   handshake, decode, execute, encode, back-pressure, close rules — for
//!   both transports: a worker feeds it from a non-blocking socket,
//!   [`crate::server::serve_stream`] from a blocking one.

use crate::proto::{self, ErrorCode, FrameError, Opcode, MAX_FRAME};
use crate::server::{
    answer_hello, encode_bad_length, is_timeout, soft_error, Hello, Shared, SHUTTING_DOWN,
};
use crate::service::LobdService;
use crate::session::Session;
use epoll::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Waker registration token (one per `Poll`).
pub(crate) const TOKEN_WAKER: usize = 0;
/// First connection token.
const TOKEN_BASE: usize = 1;

/// Idle poll timeout: an upper bound on how late a thread notices the
/// shutdown flag if every waker poke was lost.
pub(crate) const POLL_TIMEOUT: Duration = Duration::from_millis(100);
/// Poll timeout while draining for shutdown, and the back-off after a
/// failed poll.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_millis(25);
/// How long a drain waits for connections with undelivered bytes or
/// frames still queued before force-closing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Size of the one `read` a round makes: room for a 64 KiB I/O frame, so
/// the common request arrives whole.
pub(crate) const READ_CHUNK: usize = 128 * 1024;
/// Unflushed reply bytes past which a batch writes before its end.
const FLUSH_EARLY: usize = READ_CHUNK;
/// Unflushed reply bytes past which a session's frames stop executing
/// until the peer has drained them: a peer that pipelines reads and never
/// reads replies holds at most this plus one reply.
const WBUF_HIGH: usize = MAX_FRAME as usize;

/// What a connection needs after a round.
pub(crate) enum Round {
    /// Nothing until its next readiness event.
    Wait,
    /// Whole frames are left past the window: another round, no event
    /// needed.
    Again,
    /// It is finished; tear the session down.
    Close,
}

/// One connection's state, whatever the transport.
pub(crate) struct Conn<S> {
    stream: S,
    /// `None` until the hello has been answered `Serve`.
    session: Option<Session>,
    /// Received bytes not yet run: a frame's prefix, or frames past the
    /// last round's window.
    rbuf: Vec<u8>,
    /// Encoded replies not yet written; `wpos` marks progress.
    wbuf: Vec<u8>,
    wpos: usize,
    /// `rbuf` may start with a whole frame.
    backlog: bool,
    /// The peer will send nothing more (EOF or a read error).
    eof: bool,
    /// Run no more frames: flush `wbuf`, then close.
    closing: bool,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(stream: S) -> Self {
        Conn {
            stream,
            session: None,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            backlog: false,
            eof: false,
            closing: false,
        }
    }

    /// One readiness round: flush, at most one `read` into `scratch`, at
    /// most `window` frames run back to back, their replies written in one
    /// `write`. `readable` says the transport reported input (or a
    /// hang-up); a blocking transport always passes `true`.
    pub(crate) fn round(
        &mut self,
        service: &LobdService,
        scratch: &mut [u8],
        window: usize,
        readable: bool,
    ) -> Round {
        self.flush();
        if self.closing || self.unflushed() > WBUF_HIGH {
            // Not reading, so `readable` can only be the peer hanging up:
            // what is still unwritten has nowhere to go.
            return if readable || self.flushed() { Round::Close } else { Round::Wait };
        }
        let mut fresh = 0;
        if readable && !self.eof && !self.backlog {
            match self.stream.read(scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => fresh = n,
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
        // With nothing carried over the frames run straight from the
        // scratch; only what is left of them is copied.
        let mut carry = std::mem::take(&mut self.rbuf);
        let carried = !carry.is_empty();
        if carried {
            carry.extend_from_slice(&scratch[..fresh]);
        }
        let used =
            self.run_frames(service, if carried { &carry } else { &scratch[..fresh] }, window);
        if carried {
            carry.drain(..used);
        } else {
            carry.extend_from_slice(&scratch[used..fresh]);
        }
        self.rbuf = carry;
        self.flush();
        // After EOF nothing waits for the peer: every frame it sent whole
        // has run, its replies went out as far as the transport took them.
        if (self.closing && self.flushed()) || (self.eof && !self.backlog) {
            Round::Close
        } else if self.backlog && self.unflushed() <= WBUF_HIGH {
            Round::Again
        } else {
            Round::Wait
        }
    }

    /// Run the whole frames at the front of `input` — the hello first —
    /// at most `window` of them and none while the unflushed replies
    /// exceed [`WBUF_HIGH`]. Returns the bytes consumed.
    fn run_frames(&mut self, service: &LobdService, input: &[u8], window: usize) -> usize {
        let (mut used, mut ran) = (0, 0usize);
        self.backlog = false;
        while !self.closing {
            let rest = &input[used..];
            let Some(session) = self.session.as_mut() else {
                let Some(hello) = rest.first_chunk::<5>() else { break };
                match answer_hello(hello, service.shutting_down(), &mut self.wbuf) {
                    // Not a lobd client: close without a byte.
                    Hello::Reject | Hello::Refuse => self.closing = true,
                    Hello::Serve => self.session = Some(service.session_opened()),
                }
                used += 5;
                continue;
            };
            if ran == window || self.wbuf.len() - self.wpos > WBUF_HIGH {
                self.backlog = !rest.is_empty();
                break;
            }
            match proto::decode_frame(rest) {
                Ok(None) => break,
                Ok(Some((consumed, tag, opcode, payload))) => {
                    let at = proto::begin_frame(&mut self.wbuf, tag);
                    let status =
                        service.handle_frame_into(session, opcode, payload, &mut self.wbuf);
                    proto::end_frame(&mut self.wbuf, at, status);
                    used += consumed;
                    ran += 1;
                    if opcode == Opcode::Shutdown as u8 && status == 0 {
                        self.closing = true;
                    } else if self.unflushed() > FLUSH_EARLY {
                        self.flush();
                    }
                }
                Err(FrameError::BadLength(n)) => {
                    // The stream can no longer be trusted to frame
                    // correctly; reply best-effort and close.
                    encode_bad_length(&mut self.wbuf, n);
                    self.closing = true;
                }
                Err(FrameError::Eof | FrameError::Io(_)) => self.closing = true,
            }
        }
        if ran > 0 {
            obs::histogram!("server.worker.batch").record(ran as u64);
        }
        used
    }

    /// Write as much of `wbuf` as the transport takes. A transport that
    /// fails is finished: what it did not take is dropped and the
    /// connection closes.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return self.fail(),
                Ok(n) => self.wpos += n,
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.fail(),
            }
        }
        if self.flushed() {
            if self.wpos > 0 && self.stream.flush().is_err() {
                return self.fail();
            }
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= self.wbuf.len() / 2 {
            // A peer that always leaves a remainder must not keep the
            // written prefix alive.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    fn fail(&mut self) {
        self.wbuf.clear();
        self.wpos = 0;
        self.closing = true;
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// The server is draining. A session with no whole frame waiting is
    /// told so (tag 0) and closes once that is written; one with frames
    /// already received runs them first. True when the connection is
    /// finished.
    fn drain(&mut self) -> bool {
        if self.backlog {
            return false;
        }
        if !self.closing {
            if self.session.is_some() {
                let notice = SHUTTING_DOWN.as_bytes();
                proto::encode_frame_into(&mut self.wbuf, 0, ErrorCode::ShuttingDown as u8, notice);
            }
            self.closing = true;
        }
        self.flush();
        self.flushed()
    }

    /// The readiness this connection wants reported.
    fn interest(&self) -> Interest {
        let mut want = Interest::NONE;
        if !(self.eof || self.closing || self.unflushed() > WBUF_HIGH) {
            want = want | Interest::READABLE;
        }
        if !self.flushed() {
            want = want | Interest::WRITABLE;
        }
        want
    }

    /// Teardown, on the thread that served the session: abort an orphaned
    /// transaction, reclaim temporaries, release the session slot.
    pub(crate) fn finish(mut self, service: &LobdService) {
        if let Some(mut session) = self.session.take() {
            service.session_closed(&mut session);
        }
    }
}

/// A worker's view of one of its connections.
struct Slot {
    conn: Conn<TcpStream>,
    /// Interest currently registered with the poll.
    interest: Interest,
    /// On the `ready` list: owed a round without a new event.
    queued: bool,
}

struct Worker {
    idx: usize,
    shared: Arc<Shared>,
    poll: Poll,
    conns: HashMap<usize, Slot>,
    next_token: usize,
    /// Connections whose last round ended at the window.
    ready: Vec<usize>,
    /// Where every connection's `read` lands; allocated with the first
    /// connection, so a worker that never gets one costs no memory.
    scratch: Vec<u8>,
    /// Set once this worker has seen the shutdown flag.
    draining_since: Option<Instant>,
}

/// Run one worker until shutdown completes.
pub(crate) fn worker_loop(idx: usize, poll: Poll, shared: Arc<Shared>) {
    let mut w = Worker {
        idx,
        shared,
        poll,
        conns: HashMap::new(),
        next_token: TOKEN_BASE,
        ready: Vec::new(),
        scratch: Vec::new(),
        draining_since: None,
    };
    let mut events = Events::with_capacity(256);
    loop {
        let timeout = if !w.ready.is_empty() {
            Duration::ZERO
        } else if w.draining_since.is_some() {
            DRAIN_TIMEOUT
        } else {
            POLL_TIMEOUT
        };
        if let Err(e) = w.poll.poll(&mut events, Some(timeout)) {
            soft_error::<(), io::Error>(Err(e));
            std::thread::sleep(DRAIN_TIMEOUT);
        }
        w.serve_ready(&events);
        w.adopt_newcomers();
        if w.shared.service.shutting_down() {
            w.drain_for_shutdown();
            if w.conns.is_empty() {
                return;
            }
        }
    }
}

impl Worker {
    /// Register the sockets the acceptor dealt to us. A contended
    /// try_lock is fine to skip: the acceptor holds the lock only around
    /// a push and pokes our waker after releasing it.
    fn adopt_newcomers(&mut self) {
        let newcomers = match self.shared.inboxes[self.idx].try_lock() {
            Some(mut inbox) => std::mem::take(&mut *inbox),
            None => return,
        };
        if !newcomers.is_empty() && self.scratch.is_empty() {
            self.scratch = vec![0; READ_CHUNK];
        }
        for stream in newcomers {
            let token = self.next_token;
            self.next_token += 1;
            let interest = Interest::READABLE;
            if self.poll.register(stream.as_raw_fd(), Token(token), interest).is_err() {
                self.shared.conns.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            // The socket may already hold bytes (fast client); poll is
            // level-triggered, so the next poll reports it.
            self.conns.insert(token, Slot { conn: Conn::new(stream), interest, queued: false });
        }
    }

    /// One round for every connection with an event, then for those
    /// carried over on the `ready` list that had none.
    fn serve_ready(&mut self, events: &Events) {
        let mut rounds = Vec::with_capacity(events.len() + self.ready.len());
        for ev in events.iter().filter(|ev| ev.token().0 != TOKEN_WAKER) {
            rounds.push((ev.token().0, ev.is_readable() || ev.is_closed_or_error()));
            if let Some(slot) = self.conns.get_mut(&ev.token().0) {
                slot.queued = false;
            }
        }
        for token in std::mem::take(&mut self.ready) {
            if let Some(slot) = self.conns.get_mut(&token).filter(|slot| slot.queued) {
                slot.queued = false;
                rounds.push((token, false));
            }
        }
        for (token, readable) in rounds {
            let Some(slot) = self.conns.get_mut(&token) else { continue };
            let window = self.shared.pipeline_window;
            match slot.conn.round(&self.shared.service, &mut self.scratch, window, readable) {
                Round::Close => self.retire(token),
                Round::Again => {
                    slot.queued = true;
                    self.ready.push(token);
                }
                Round::Wait => self.sync_interest(token),
            }
        }
    }

    /// Re-register the connection if the readiness it wants changed.
    fn sync_interest(&mut self, token: usize) {
        let Some(slot) = self.conns.get_mut(&token) else { return };
        let want = slot.conn.interest();
        if want == slot.interest {
            return;
        }
        if self.poll.reregister(slot.conn.stream.as_raw_fd(), Token(token), want).is_err() {
            self.retire(token);
            return;
        }
        slot.interest = want;
    }

    /// Final teardown: deregister, close the session, release the
    /// admission slot.
    fn retire(&mut self, token: usize) {
        let Some(slot) = self.conns.remove(&token) else { return };
        soft_error(self.poll.deregister(slot.conn.stream.as_raw_fd()));
        slot.conn.finish(&self.shared.service);
        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
    }

    /// Progress the shutdown drain: notify idle sessions, close what has
    /// nothing left to deliver, force-close stragglers after the grace
    /// period.
    fn drain_for_shutdown(&mut self) {
        let since = *self.draining_since.get_or_insert_with(|| {
            // A `shutdown` frame set the flag on this thread only: rouse
            // the rest so they drain now, not at their next timeout.
            self.shared.wake_all();
            Instant::now()
        });
        let grace_over = since.elapsed() > SHUTDOWN_GRACE;
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(slot) = self.conns.get_mut(&token) else { continue };
            if grace_over || slot.conn.drain() {
                self.retire(token);
            } else {
                self.sync_interest(token);
            }
        }
    }
}
