//! R14 fixture: two `pub fn`s of one name (posing as
//! `crates/heap/src/lib.rs`), each called only by the other, and a third
//! fn that a library user calls. Both `data_bytes` are dead: neither
//! call counts while its caller has no use of its own.

pub struct Chunks;
pub struct Segments;

impl Chunks {
    /// Positive: only `Segments::data_bytes` calls it.
    pub fn data_bytes(&self, s: &Segments) -> u64 {
        s.data_bytes(self)
    }

    /// Negative: a library user calls it, so what it calls is used.
    pub fn size(&self) -> u64 {
        self.tail()
    }

    /// Negative: called from `size`, which is used.
    pub fn tail(&self) -> u64 {
        0
    }
}

impl Segments {
    /// Positive: only `Chunks::data_bytes` calls it.
    pub fn data_bytes(&self, c: &Chunks) -> u64 {
        c.data_bytes(self)
    }
}
