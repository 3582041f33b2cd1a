//! What the store must hold: per large object, the checksum of every
//! 4 KiB frame as last written. A full byte copy would put the working
//! set a second time into the process lobd runs in and into
//! `rss_peak_mib`; the checksums are 1/512 of that and catch the same
//! wrong, stale, torn or misplaced bytes.

use crate::stats::{checksum, SplitMix64};

/// The paper's frame (§9): the unit of every random read and write.
pub const FRAME: usize = 4096;

/// One live large object as the model sees it.
#[derive(Clone)]
pub struct Obj {
    pub id: u64,
    /// Checksum per frame; the object is `frames.len() * FRAME` bytes.
    pub frames: Vec<u64>,
}

impl Obj {
    pub fn new(id: u64) -> Self {
        Self { id, frames: Vec::new() }
    }

    pub fn bytes(&self) -> u64 {
        (self.frames.len() * FRAME) as u64
    }

    /// Record `data` (whole frames) as written at frame `first`,
    /// appending when it reaches past the end.
    pub fn wrote(&mut self, first: usize, data: &[u8]) {
        debug_assert_eq!(data.len() % FRAME, 0);
        for (i, frame) in data.chunks_exact(FRAME).enumerate() {
            let sum = checksum(frame);
            match self.frames.get_mut(first + i) {
                Some(slot) => *slot = sum,
                None => {
                    debug_assert_eq!(self.frames.len(), first + i, "model objects have no holes");
                    self.frames.push(sum);
                }
            }
        }
    }

    /// Whether `data`, read at frame `first` with `want` bytes asked for,
    /// is exactly what the object holds there.
    pub fn matches(&self, first: usize, want: usize, data: &[u8]) -> bool {
        let have = self.frames.len().saturating_sub(first) * FRAME;
        data.len() == want.min(have)
            && data.len().is_multiple_of(FRAME)
            && data
                .chunks_exact(FRAME)
                .zip(&self.frames[first.min(self.frames.len())..])
                .all(|(frame, sum)| checksum(frame) == *sum)
    }
}

/// Fill `buf` with fresh pseudo-random bytes. Incompressible on purpose:
/// the objects are stored uncompressed, and content must not let one
/// frame pass for another.
pub fn fill(buf: &mut [u8], rng: &mut SplitMix64) {
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    for b in words.into_remainder() {
        *b = rng.next_u64() as u8;
    }
}
