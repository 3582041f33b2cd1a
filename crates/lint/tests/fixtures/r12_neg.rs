//! R12 negative fixture, played as `crates/server/src/reactor.rs`:
//! every sanctioned escape hatch in one file. Dealing a connection to a
//! worker through a `try_lock`ed inbox, poking its waker and polling
//! must all stay quiet.

impl Acceptor {
    fn deal(&mut self, stream: TcpStream) {
        let target = self.rr % self.inboxes.len();
        let placed = match self.inboxes[target].try_lock() {
            Some(mut inbox) => {
                inbox.push(stream);
                true
            }
            None => false,
        };
        if placed {
            soft_error(self.wakers[target].wake());
        }
    }

    fn acceptor_loop(&mut self, events: &mut Events) {
        while !self.done {
            self.poll.poll(events, None);
            self.count += 1;
        }
    }
}
