// R7 negative fixture: guards are dropped (explicitly or by scope)
// before any I/O happens; a reasoned allow excuses the one by-design
// hold-across-write.
pub struct Pool;

impl Pool {
    fn load(&self) {
        let key = {
            let g = self.state.lock();
            g.key
        };
        self.smgr.read(key.rel, key.block, buf);
    }

    fn refresh(&self) {
        let g = self.state.lock();
        let key = g.key;
        drop(g);
        self.smgr.write(key.rel, key.block, buf);
    }

    fn warm(&self, wanted: bool) {
        if wanted {
            let g = self.state.lock();
            let key = g.key;
            drop(g);
            self.smgr.read(key.rel, key.block, buf);
        }
    }

    fn flush(&self) {
        let data = self.frame.write();
        // LINT: allow(R7, the frame lock keeps the page image stable while it goes to the device)
        self.smgr.write(rel, block, &data.page);
    }
}
