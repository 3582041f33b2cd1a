//! Synthetic frame generator with ratio calibration.
//!
//! The benchmark's 4096-byte frames must compress to the paper's ratios —
//! ~70 % of original under the fast codec ("30 % compression") and ~50 %
//! under the tight one. Real data with those exact properties isn't
//! available, so frames are synthesized as a mix of incompressible noise
//! and byte runs; [`calibrate`] binary-searches the run fraction until the
//! chosen codec hits the requested ratio on sample frames. The achieved
//! ratio is reported by the harness next to the target.

use crate::Codec;

/// Deterministic frame generator: `frame(i)` always returns the same bytes
/// for the same generator parameters, and distinct `i` give distinct frames
/// of statistically identical compressibility (sequential writes and
/// benchmark "replace" operations use fresh frames).
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    frame_len: usize,
    /// Fraction of 64-byte cells that are single-byte runs (the
    /// compressible part).
    run_fraction: f64,
    seed: u64,
}

/// Cell granularity of the noise/run mix.
const CELL: usize = 64;

/// A tiny splitmix64 PRNG — deterministic and dependency-free.
#[derive(Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl FrameGenerator {
    /// A generator for frames of `frame_len` bytes with the given run
    /// fraction.
    pub fn new(frame_len: usize, run_fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&run_fraction));
        assert!(frame_len > 0);
        Self { frame_len, run_fraction, seed }
    }

    /// Generate frame `i`.
    ///
    /// Run cells are placed by error diffusion rather than per-cell coin
    /// flips, so every frame carries almost exactly the calibrated run
    /// fraction — the per-chunk compressed size is then tightly clustered,
    /// which is what lets the Figure 1 "two ≤½-page chunks per page"
    /// geometry hold for (nearly) every page rather than on average.
    pub fn frame(&self, i: u64) -> Vec<u8> {
        let mut rng = SplitMix(self.seed ^ i.wrapping_mul(0xA24BAED4963EE407));
        let mut out = Vec::with_capacity(self.frame_len);
        let mut acc = rng.next_f64(); // phase-shift runs between frames
        while out.len() < self.frame_len {
            let cell = (self.frame_len - out.len()).min(CELL);
            acc += self.run_fraction;
            if acc >= 1.0 {
                acc -= 1.0;
                let b = (rng.next() & 0xFF) as u8;
                out.resize(out.len() + cell, b);
            } else {
                for _ in 0..cell {
                    out.push((rng.next() & 0xFF) as u8);
                }
            }
        }
        out
    }

    /// Mean compressed/original ratio of `samples` frames under `codec`.
    pub fn measure_ratio(&self, codec: &dyn Codec, samples: u64) -> f64 {
        let mut in_bytes = 0usize;
        let mut out_bytes = 0usize;
        for i in 0..samples {
            let frame = self.frame(i);
            let compressed = crate::compress_vec(codec, &frame);
            in_bytes += frame.len();
            out_bytes += compressed.len();
        }
        out_bytes as f64 / in_bytes as f64
    }
}

/// Binary-search the run fraction so that `codec` compresses frames to
/// `target_ratio` (compressed/original, e.g. 0.7 for the paper's "30 %
/// compression"). Returns the calibrated generator and the ratio achieved.
pub fn calibrate(
    codec: &dyn Codec,
    frame_len: usize,
    target_ratio: f64,
    seed: u64,
) -> (FrameGenerator, f64) {
    assert!((0.01..=1.0).contains(&target_ratio));
    let samples = 24;
    let mut lo = 0.0f64; // all noise → ratio ≈ 1
    let mut hi = 1.0f64; // all runs → ratio ≈ 0
    let mut best = FrameGenerator::new(frame_len, 0.5, seed);
    let mut best_ratio = f64::MAX;
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        let gen = FrameGenerator::new(frame_len, mid, seed);
        let ratio = gen.measure_ratio(codec, samples);
        if (ratio - target_ratio).abs() < (best_ratio - target_ratio).abs() {
            best = gen.clone();
            best_ratio = ratio;
        }
        if ratio > target_ratio {
            // Too big: need more runs.
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (best, best_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecKind;

    #[test]
    fn frames_deterministic_and_distinct() {
        let g = FrameGenerator::new(4096, 0.4, 7);
        assert_eq!(g.frame(0), g.frame(0));
        assert_ne!(g.frame(0), g.frame(1));
        assert_eq!(g.frame(5).len(), 4096);
    }

    #[test]
    fn extreme_fractions_bound_ratio() {
        let noise = FrameGenerator::new(4096, 0.0, 1);
        let runs = FrameGenerator::new(4096, 1.0, 1);
        let rle = CodecKind::Rle.codec();
        assert!(noise.measure_ratio(rle, 4) > 0.95);
        assert!(runs.measure_ratio(rle, 4) < 0.1);
    }

    #[test]
    fn calibrates_rle_to_30_percent_compression() {
        let (gen, achieved) = calibrate(CodecKind::Rle.codec(), 4096, 0.70, 42);
        assert!(
            (achieved - 0.70).abs() < 0.02,
            "achieved ratio {achieved} should be within 2 % of target"
        );
        // Fresh frames (not used during calibration) keep the ratio.
        let mut total_in = 0usize;
        let mut total_out = 0usize;
        for i in 100..120 {
            let f = gen.frame(i);
            total_in += f.len();
            total_out += crate::compress_vec(CodecKind::Rle.codec(), &f).len();
        }
        let fresh = total_out as f64 / total_in as f64;
        assert!((fresh - 0.70).abs() < 0.04, "fresh-frame ratio {fresh}");
    }

    #[test]
    fn calibrates_lz77_to_50_percent_compression() {
        let (_gen, achieved) = calibrate(CodecKind::Lz77.codec(), 4096, 0.50, 42);
        assert!(
            (achieved - 0.50).abs() < 0.02,
            "achieved ratio {achieved} should be within 2 % of target"
        );
    }

    #[test]
    fn frame_lengths_respected() {
        for len in [1, 63, 64, 65, 4096, 8000] {
            let g = FrameGenerator::new(len, 0.5, 3);
            assert_eq!(g.frame(9).len(), len);
        }
    }
}
