//! R12 positive fixture, played as `crates/server/src/reactor.rs`: the
//! acceptor root reaches a blocking `lock()` only through a two-hop
//! helper chain defined in another server file (r12_helpers.rs), so
//! the finding requires interprocedural effect propagation.

impl Acceptor {
    fn acceptor_loop(&mut self) {
        self.dispatch(1);
    }
}
