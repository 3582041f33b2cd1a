// R9 positive fixture: all three swallow shapes, and a typed `let _`.
pub struct Conn;

impl Conn {
    fn hang_up(&mut self) {
        let _ = self.flush();
        self.stream.set_nodelay(true).ok();
        self.check();
        let _: io::Result<()> = self.flush();
    }

    #[must_use]
    fn check(&self) -> Status {
        self.status
    }
}
