//! What remains of the reactor: the acceptor thread behind
//! [`crate::server::spawn`].
//!
//! It owns the listener and nothing else: accept, `max_sessions`
//! admission, a round-robin deal into the workers' inboxes and a waker
//! poke. It is the one thread that must stay prompt whatever the workers
//! are executing, so it is the thread lint R12 (reactor-no-block)
//! polices: every function in this file runs on it.

use crate::server::{is_timeout, soft_error, Shared};
use crate::worker::{DRAIN_TIMEOUT, POLL_TIMEOUT};
use epoll::{Events, Interest, Poll, Token};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Listener token (the waker is token 0).
const TOKEN_LISTENER: usize = 1;

struct Acceptor {
    shared: Arc<Shared>,
    listener: TcpListener,
    /// Round-robin cursor for dealing accepted sockets to workers.
    rr: usize,
}

/// Accept and deal until shutdown begins; dropping the listener on the
/// way out refuses whoever connects during the drain.
pub(crate) fn acceptor_loop(mut poll: Poll, listener: TcpListener, shared: Arc<Shared>) {
    if poll.register(listener.as_raw_fd(), Token(TOKEN_LISTENER), Interest::READABLE).is_err() {
        // Nothing can be accepted; the workers still drain on shutdown.
        soft_error::<(), ()>(Err(()));
        return;
    }
    let mut acceptor = Acceptor { shared, listener, rr: 0 };
    let mut events = Events::with_capacity(8);
    while !acceptor.shared.service.shutting_down() {
        if let Err(e) = poll.poll(&mut events, Some(POLL_TIMEOUT)) {
            soft_error::<(), io::Error>(Err(e));
            // LINT: allow(R12, poll itself failed so nothing is being accepted; the backoff keeps a broken poll fd from becoming a hot error loop)
            std::thread::sleep(DRAIN_TIMEOUT);
        }
        if events.iter().any(|ev| ev.token().0 == TOKEN_LISTENER) {
            acceptor.do_accept();
        }
    }
}

impl Acceptor {
    /// Accept until the listener would block.
    fn do_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.conns.load(Ordering::SeqCst) >= self.shared.max_sessions {
                        obs::counter!("server.accept.refused").add(1);
                        continue;
                    }
                    soft_error(stream.set_nodelay(true));
                    // A blocking stream would stall its worker: drop it,
                    // counted.
                    if let Err(e) = stream.set_nonblocking(true) {
                        soft_error::<(), io::Error>(Err(e));
                        continue;
                    }
                    self.shared.conns.fetch_add(1, Ordering::SeqCst);
                    self.deal(stream);
                }
                Err(e) if is_timeout(&e) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    soft_error::<(), io::Error>(Err(e));
                    return;
                }
            }
        }
    }

    /// Hand `stream` to the next worker in turn whose inbox is free. An
    /// inbox lock is held only around this push or the owner's take, so a
    /// whole lap of contended try_locks means every worker is mid-take:
    /// yield and go round again rather than park on one of them.
    fn deal(&mut self, stream: TcpStream) {
        let workers = self.shared.inboxes.len();
        loop {
            for _ in 0..workers {
                let target = self.rr % workers;
                self.rr = self.rr.wrapping_add(1);
                let Some(mut inbox) = self.shared.inboxes[target].try_lock() else { continue };
                inbox.push(stream);
                drop(inbox);
                return soft_error(self.shared.wakers[target].wake());
            }
            std::thread::yield_now();
        }
    }
}
