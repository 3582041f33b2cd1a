// R7 positive fixture: a lock guard stays live across device I/O, a
// frame guard obtained from a guard-returning fn stays live across a
// same-crate I/O wrapper, and a guard bound by a `let` whose annotation
// ends in `>` (so the source reads `> =`) is still a binding. A `drop`
// on one branch only leaves the guard live on the other.
pub struct Pool;

impl Pool {
    fn load(&self) {
        let g = self.state.lock();
        self.smgr.read(rel, block, buf);
        drop(g);
    }

    fn claim(&self) -> Option<RwLockWriteGuard<'_, Frame>> {
        self.frame.try_write()
    }

    fn spill(&self, smgr: &S) {
        std::fs::write(self.path, b"spill")
    }

    fn evict(&self, smgr: &S) {
        if let Some(data) = self.claim() {
            self.spill(smgr);
        }
    }

    fn typed(&self) {
        let latch: Option<RwLockWriteGuard<'_, Frame>> = self.frame.try_write();
        self.smgr.sync(rel);
    }

    fn maybe_release(&self, early: bool) {
        let held = self.state.lock();
        if early {
            drop(held);
        }
        self.smgr.read(rel, block, buf);
    }
}
