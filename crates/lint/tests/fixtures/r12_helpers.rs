//! Helper chain for r12_pos.rs, played as another `server` file: the
//! blocking seed sits two hops below the acceptor root.

impl Helpers {
    fn dispatch(&self, x: u32) {
        self.deep();
    }

    fn deep(&self) {
        self.state.lock().push(1);
    }
}
