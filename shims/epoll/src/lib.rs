//! In-repo shim: readiness polling with a mio-style API.
//!
//! Two backends behind one `Poll` type:
//!
//! * **epoll** (Linux): `epoll_create1` / `epoll_ctl` / `epoll_wait`,
//!   level-triggered.
//! * **poll(2)** fallback: a portable `poll` loop over a registration
//!   table, so the same tests run on any unix. On Linux both backends
//!   are constructible (`Poll::new` vs `Poll::with_fallback`) and the
//!   shim's own tests exercise both.
//!
//! Registration is by raw fd + caller-chosen `Token`; readiness comes
//! back as an `Events` set. Both backends are level-triggered so a
//! consumer that drains partially keeps getting notified — server
//! code must not depend on edge semantics.
//!
//! A `Waker` wraps the write end of a non-blocking pipe registered with
//! the `Poll`; `wake()` from any thread makes `poll()` return. The read
//! end is drained by `Poll::poll` itself, so the waker event is purely
//! a level-reset notification to the caller.

use std::io;
use std::sync::Arc;
use std::time::Duration;

pub type RawFd = i32;

mod sys {
    //! Minimal libc surface. Declared by hand: the workspace builds
    //! offline with no libc crate; everything here is the stable kernel
    //! ABI for x86_64/aarch64 Linux (and POSIX for the poll fallback).
    #![allow(non_camel_case_types)]

    pub type c_int = i32;

    // Linux declares epoll_event packed on x86_64 only (EPOLL_PACKED).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    /// Peer half-close. Linux-specific (like POLLRDHUP itself); requested
    /// unconditionally so an fd parked at `Interest::NONE` still surfaces
    /// a hangup, matching the epoll backend's EPOLLRDHUP behaviour.
    #[cfg(target_os = "linux")]
    pub const POLLRDHUP: i16 = 0x2000;
    #[cfg(not(target_os = "linux"))]
    pub const POLLRDHUP: i16 = 0;

    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    pub const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut pollfd, nfds: u64, timeout: c_int) -> c_int;
        pub fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    }
}

/// Caller-chosen identity for a registered fd, echoed back in events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Readiness interest set. `NONE` keeps the fd registered for
/// error/hangup notification only (both backends still report those).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    pub const NONE: Interest = Interest(0);
    pub const READABLE: Interest = Interest(1);
    pub const WRITABLE: Interest = Interest(2);

    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: usize,
    readable: bool,
    writable: bool,
    error: bool,
    hup: bool,
}

impl Event {
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    pub fn is_readable(&self) -> bool {
        self.readable
    }

    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Error or hangup: the fd needs attention even with `Interest::NONE`.
    pub fn is_closed_or_error(&self) -> bool {
        self.error || self.hup
    }
}

/// Reusable event buffer filled by `Poll::poll`.
pub struct Events {
    list: Vec<Event>,
    capacity: usize,
    /// The kernel's side of the buffer (epoll backend), kept between
    /// polls so a poll allocates nothing.
    raw: Vec<sys::epoll_event>,
}

impl Events {
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            list: Vec::with_capacity(capacity),
            capacity,
            raw: vec![sys::epoll_event { events: 0, data: 0 }; capacity],
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.list.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

enum Backend {
    /// epoll fd.
    Epoll(RawFd),
    /// poll(2) over a registration table: (fd, token, interest).
    PollTable(Vec<(RawFd, usize, Interest)>),
}

/// Readiness selector over registered fds.
pub struct Poll {
    backend: Backend,
    /// Read ends of waker pipes we own and must drain + close.
    waker_reads: Vec<(RawFd, usize)>,
}

fn timeout_ms(timeout: Option<Duration>) -> sys::c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms > sys::c_int::MAX as u128 {
                sys::c_int::MAX
            } else {
                ms as sys::c_int
            }
        }
    }
}

impl Poll {
    /// Platform-preferred backend: epoll on Linux, poll(2) elsewhere.
    pub fn new() -> io::Result<Poll> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: epoll_create1 takes a flags int and returns a new
            // fd or -1; no pointers are involved.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poll { backend: Backend::Epoll(epfd), waker_reads: Vec::new() })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poll::with_fallback()
        }
    }

    /// The poll(2) backend, constructible on every platform (used by
    /// tests to cover the fallback path even on Linux).
    pub fn with_fallback() -> io::Result<Poll> {
        Ok(Poll { backend: Backend::PollTable(Vec::new()), waker_reads: Vec::new() })
    }

    fn epoll_ctl(
        epfd: RawFd,
        op: sys::c_int,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.is_readable() {
            events |= sys::EPOLLIN;
        }
        if interest.is_writable() {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::epoll_event { events, data: token as u64 };
        let evp = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::epoll_event
        };
        // SAFETY: evp is either null (DEL, where the kernel ignores it)
        // or points at a live epoll_event on this stack frame for the
        // duration of the call.
        let rc = unsafe { sys::epoll_ctl(epfd, op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token` for `interest`.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(epfd) => {
                Self::epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, token.0, interest)
            }
            Backend::PollTable(table) => {
                if table.iter().any(|(f, _, _)| *f == fd) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                table.push((fd, token.0, interest));
                Ok(())
            }
        }
    }

    /// Change the interest set (and optionally token) of a watched fd.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(epfd) => {
                Self::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, token.0, interest)
            }
            Backend::PollTable(table) => {
                for slot in table.iter_mut() {
                    if slot.0 == fd {
                        slot.1 = token.0;
                        slot.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Stop watching `fd`. The caller still owns (and closes) the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(epfd) => {
                Self::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
            }
            Backend::PollTable(table) => {
                let before = table.len();
                table.retain(|(f, _, _)| *f != fd);
                if table.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
        }
    }

    /// Block until at least one registered fd is ready, the timeout
    /// lapses, or a waker fires. EINTR is retried internally with the
    /// original timeout; spurious empty wakeups are normal.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.list.clear();
        let tmo = timeout_ms(timeout);
        match &mut self.backend {
            Backend::Epoll(epfd) => {
                let raw = &mut events.raw;
                let cap = raw.len();
                let n = loop {
                    // SAFETY: raw points at `cap` epoll_event slots that
                    // outlive the call; the kernel writes at most `cap`.
                    let rc =
                        unsafe { sys::epoll_wait(*epfd, raw.as_mut_ptr(), cap as sys::c_int, tmo) };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                for slot in raw.iter().take(n) {
                    let bits = slot.events;
                    events.list.push(Event {
                        token: slot.data as usize,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        error: bits & sys::EPOLLERR != 0,
                        hup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    });
                }
            }
            Backend::PollTable(table) => {
                let mut fds: Vec<sys::pollfd> = table
                    .iter()
                    .map(|(fd, _, interest)| {
                        let mut ev = sys::POLLRDHUP;
                        if interest.is_readable() {
                            ev |= sys::POLLIN;
                        }
                        if interest.is_writable() {
                            ev |= sys::POLLOUT;
                        }
                        sys::pollfd { fd: *fd, events: ev, revents: 0 }
                    })
                    .collect();
                let n = loop {
                    // SAFETY: fds points at fds.len() pollfd slots that
                    // outlive the call; the kernel only fills revents.
                    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, tmo) };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                if n > 0 {
                    for (slot, (_, token, _)) in fds.iter().zip(table.iter()) {
                        let bits = slot.revents;
                        if bits == 0 {
                            continue;
                        }
                        events.list.push(Event {
                            token: *token,
                            readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLRDHUP) != 0,
                            writable: bits & sys::POLLOUT != 0,
                            error: bits & sys::POLLERR != 0,
                            hup: bits & (sys::POLLHUP | sys::POLLRDHUP) != 0,
                        });
                        if events.list.len() >= events.capacity {
                            break;
                        }
                    }
                }
            }
        }
        // Drain the waker pipes that fired so level-triggered polling
        // does not spin; the event itself is still delivered above.
        for (fd, token) in &self.waker_reads {
            if !events.list.iter().any(|ev| ev.token == *token) {
                continue;
            }
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: buf is a live 64-byte stack buffer; read
                // writes at most buf.len() bytes into it.
                let rc = unsafe { sys::read(*fd, buf.as_mut_ptr(), buf.len()) };
                if rc <= 0 {
                    break;
                }
            }
        }
        Ok(())
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        if let Backend::Epoll(epfd) = self.backend {
            // SAFETY: epfd is an fd this Poll owns exclusively; closing
            // it here is the single close site.
            unsafe { sys::close(epfd) };
        }
        for (fd, _) in self.waker_reads.drain(..) {
            // SAFETY: waker read ends are owned by this Poll (adopted in
            // Waker::new) and closed exactly once, here.
            unsafe { sys::close(fd) };
        }
    }
}

struct WakeFd(RawFd);

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: the write end is owned exclusively by this WakeFd;
        // this is its single close site.
        unsafe { sys::close(self.0) };
    }
}

/// Cross-thread wakeup for a `Poll`: cloneable, `wake()` makes the
/// owning `Poll::poll` return with an event carrying the waker's token.
#[derive(Clone)]
pub struct Waker {
    write_end: Arc<WakeFd>,
}

impl Waker {
    /// Create a waker registered with `poll` under `token`. The pipe's
    /// read end is adopted (drained + closed) by the `Poll`.
    pub fn new(poll: &mut Poll, token: Token) -> io::Result<Waker> {
        let mut fds = [0 as sys::c_int; 2];
        // SAFETY: fds is a live 2-slot array; pipe2 writes exactly two
        // fds into it on success.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let (read_end, write_end) = (fds[0], fds[1]);
        if let Err(e) = poll.register(read_end, token, Interest::READABLE) {
            // SAFETY: registration failed, so this function still owns
            // both pipe fds and must close them exactly once each.
            unsafe {
                sys::close(read_end);
                sys::close(write_end);
            }
            return Err(e);
        }
        poll.waker_reads.push((read_end, token.0));
        Ok(Waker { write_end: Arc::new(WakeFd(write_end)) })
    }

    /// Wake the poller. A full pipe means a wake is already pending, so
    /// EAGAIN counts as success.
    pub fn wake(&self) -> io::Result<()> {
        let buf = [1u8];
        // SAFETY: buf is a live 1-byte stack buffer; write reads at most
        // one byte from it.
        let rc = unsafe { sys::write(self.write_end.0, buf.as_ptr(), 1) };
        if rc == 1 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::WouldBlock {
            return Ok(());
        }
        Err(err)
    }
}

/// Best-effort RLIMIT_NOFILE raise toward `target`; returns the soft
/// limit now in effect. Never lowers the current soft limit.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = sys::rlimit { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: lim is a live rlimit on this stack frame; getrlimit fills
    // it on success.
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim as *mut sys::rlimit) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = sys::rlimit { rlim_cur: target.min(lim.rlim_max), rlim_max: lim.rlim_max };
    // SAFETY: want is a live rlimit on this stack frame; setrlimit only
    // reads it.
    let rc = unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want as *const sys::rlimit) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(want.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    fn backends() -> Vec<Poll> {
        let mut v = vec![Poll::with_fallback().expect("fallback backend")];
        if cfg!(target_os = "linux") {
            v.insert(0, Poll::new().expect("native backend"));
        }
        v
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn readable_after_peer_write_both_backends() {
        for mut poll in backends() {
            let (mut a, b) = tcp_pair();
            b.set_nonblocking(true).expect("nonblock");
            poll.register(b.as_raw_fd(), Token(7), Interest::READABLE).expect("register");

            let mut events = Events::with_capacity(8);
            poll.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
            assert!(events.is_empty(), "no data yet, no event");

            a.write_all(b"hi").expect("write");
            poll.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
            let ev = events.iter().next().expect("one event");
            assert_eq!(ev.token(), Token(7));
            assert!(ev.is_readable());
        }
    }

    #[test]
    fn writable_reported_and_maskable_both_backends() {
        for mut poll in backends() {
            let (_a, b) = tcp_pair();
            b.set_nonblocking(true).expect("nonblock");
            poll.register(b.as_raw_fd(), Token(3), Interest::WRITABLE).expect("register");
            let mut events = Events::with_capacity(8);
            poll.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
            assert!(
                events.iter().any(|e| e.token() == Token(3) && e.is_writable()),
                "fresh socket with empty send buffer is writable"
            );

            // Mask writability off: no more events for this fd.
            poll.reregister(b.as_raw_fd(), Token(3), Interest::NONE).expect("reregister");
            poll.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
            assert!(events.is_empty(), "Interest::NONE silences writable");
        }
    }

    #[test]
    fn hangup_visible_even_with_interest_none() {
        for mut poll in backends() {
            let (a, b) = tcp_pair();
            b.set_nonblocking(true).expect("nonblock");
            poll.register(b.as_raw_fd(), Token(9), Interest::NONE).expect("register");
            drop(a);
            let mut events = Events::with_capacity(8);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut saw = false;
            while Instant::now() < deadline && !saw {
                poll.poll(&mut events, Some(Duration::from_millis(50))).expect("poll");
                saw = events
                    .iter()
                    .any(|e| e.token() == Token(9) && (e.is_closed_or_error() || e.is_readable()));
            }
            assert!(saw, "peer close must surface despite Interest::NONE");
        }
    }

    #[test]
    fn waker_wakes_poll_from_another_thread() {
        for mut poll in backends() {
            let waker = Waker::new(&mut poll, Token(0)).expect("waker");
            let remote = waker.clone();
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                remote.wake().expect("wake");
            });
            let mut events = Events::with_capacity(8);
            let start = Instant::now();
            poll.poll(&mut events, Some(Duration::from_secs(10))).expect("poll");
            assert!(start.elapsed() < Duration::from_secs(9), "woke before timeout");
            assert!(events.iter().any(|e| e.token() == Token(0)));
            t.join().expect("join");

            // Drained by poll: the next call must not spin on the pipe.
            poll.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
            assert!(events.is_empty(), "waker pipe drained after delivery");

            // Repeated wakes coalesce without error.
            for _ in 0..1000 {
                waker.wake().expect("wake floods coalesce");
            }
            poll.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
            assert!(events.iter().any(|e| e.token() == Token(0)));
        }
    }

    #[test]
    fn deregister_stops_events() {
        for mut poll in backends() {
            let (mut a, b) = tcp_pair();
            b.set_nonblocking(true).expect("nonblock");
            poll.register(b.as_raw_fd(), Token(1), Interest::READABLE).expect("register");
            a.write_all(b"x").expect("write");
            let mut events = Events::with_capacity(8);
            poll.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
            assert!(!events.is_empty());
            poll.deregister(b.as_raw_fd()).expect("deregister");
            poll.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
            assert!(events.is_empty(), "deregistered fd is silent");
            // Socket still owned by us and readable the normal way.
            b.set_nonblocking(false).expect("block");
            let mut buf = [0u8; 1];
            b.try_clone().expect("clone").read_exact(&mut buf).expect("read");
            assert_eq!(&buf, b"x");
        }
    }

    #[test]
    fn timeout_expires_without_events() {
        for mut poll in backends() {
            let mut events = Events::with_capacity(4);
            let start = Instant::now();
            poll.poll(&mut events, Some(Duration::from_millis(40))).expect("poll");
            assert!(events.is_empty());
            assert!(start.elapsed() >= Duration::from_millis(25), "timeout honored");
        }
    }

    #[test]
    fn nofile_limit_query_is_sane() {
        let now = raise_nofile_limit(64).expect("raise/query");
        assert!(now >= 64, "soft limit at least what we asked: {now}");
    }
}
