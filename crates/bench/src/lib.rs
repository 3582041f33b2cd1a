//! Benchmark harness reproducing the paper's evaluation (§9).
//!
//! "The benchmark measures read and write throughput for large transfers
//! which are either sequential or random. Specifically, a 51.2 MB large
//! object was created and then logically considered a group of 12,500
//! frames, each of size 4096 bytes."
//!
//! The `repro` binary regenerates every table: Figure 1 (storage used),
//! Figure 2 (disk elapsed times), Figure 3 (WORM elapsed times), plus the
//! ablations DESIGN.md calls out. Elapsed times are **simulated seconds**
//! from the deterministic 1992 device model (see `pglo-sim`), so the tables
//! are host-independent; wall-clock questions go to `lobench` (the package
//! under `src/bin/lobench/`, judged by `BENCHMARK.json`).

pub mod ablation;
pub mod config;
pub mod figures;
pub mod workload;

pub use config::BenchConfig;
pub use figures::{run_fig1, run_fig2, run_fig3, Fig1Row, FigTable};
pub use workload::{ImplKind, Op};

/// A tiny deterministic PRNG (splitmix64) so every implementation sees the
/// identical random / 80-20 access sequences.
#[derive(Clone)]
pub struct Rng(pub u64);

impl Rng {
    #[expect(clippy::should_implement_trait, reason = "an endless generator, not an Iterator")]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}
