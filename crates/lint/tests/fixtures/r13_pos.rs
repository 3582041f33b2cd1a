//! R13 positive fixture, played as `crates/buffer/src/lib.rs`: the
//! data-page write precedes the WAL append or the WAL flush, and the
//! tmp+rename persistence is never made durable with a directory fsync.

impl Pool {
    fn write_back_wrong(&self) {
        self.smgr.write(rel, blk, &page);
        self.wal.append(&rec);
    }

    fn flush_after_write_wrong(&self) {
        self.smgr.write(rel, blk, &page);
        self.wal.flush_to(lsn);
    }
}

fn persist_wrong(path: &Path, text: &str) {
    std::fs::write(&tmp, text);
    std::fs::rename(&tmp, path);
}
