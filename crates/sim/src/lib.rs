//! Simulated hardware cost model for the `pglo` workspace.
//!
//! The paper's evaluation ran on a 12-processor Sequent Symmetry with local
//! magnetic disks and a Sony WORM optical jukebox. None of that hardware is
//! available, so every storage-manager call and every compression call in
//! this workspace is *charged* against a deterministic simulated clock using
//! 1992-era device profiles. The benchmark figures report simulated elapsed
//! time, which makes the reproduced tables host-independent and exactly
//! repeatable, while Criterion benches report real wall-clock time alongside.
//!
//! The model is deliberately simple — a seek cost plus a per-byte transfer
//! cost, with sequential-access detection — because that is all the paper's
//! results depend on: the orderings in Figures 2 and 3 are driven by I/O
//! counts, seek/transfer ratios, and CPU instructions per byte of
//! compression.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod clock;
pub mod cpu;
pub mod device;
pub mod stats;

pub use clock::SimClock;
pub use cpu::CpuModel;
pub use device::DeviceProfile;
pub use stats::IoStats;

use std::sync::Arc;

/// Shared simulation context threaded through every storage-manager and
/// codec call in the workspace.
///
/// Cheap to clone (`Arc` internals); clones share the same clock.
#[derive(Clone)]
pub struct SimContext {
    clock: Arc<SimClock>,
    cpu: CpuModel,
}

impl SimContext {
    /// Create a context with the given CPU model and a zeroed clock.
    pub fn new(cpu: CpuModel) -> Self {
        Self { clock: Arc::new(SimClock::new()), cpu }
    }

    /// A context using the default 1992-class CPU model.
    pub fn default_1992() -> Self {
        Self::new(CpuModel::sequent_symmetry())
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated nanoseconds elapsed since context creation (or last reset).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Simulated seconds elapsed — the unit the paper's figures report.
    // LINT: allow(R14, simulated seconds, which examples/worm_archive.rs reports)
    pub fn now_secs(&self) -> f64 {
        self.clock.now_ns() as f64 / 1e9
    }

    /// Reset the simulated clock to zero. Benchmarks call this between runs.
    pub fn reset(&self) {
        self.clock.reset();
    }

    /// Charge a device transfer of `bytes` bytes against `profile`.
    ///
    /// `sequential` should be true when the transfer continues where the
    /// previous transfer on the same device stream left off; sequential
    /// transfers pay only the per-byte cost, random transfers also pay the
    /// seek cost.
    pub fn charge_io(&self, profile: &DeviceProfile, bytes: usize, sequential: bool) {
        let mut ns = profile.transfer_ns(bytes);
        if !sequential {
            ns += profile.seek_ns;
        }
        self.clock.advance_ns(ns);
    }

    /// Charge `instructions` simulated CPU instructions (compression,
    /// checksum, etc.) at the context's MIPS rating.
    pub fn charge_cpu(&self, instructions: u64) {
        self.clock.advance_ns(self.cpu.instructions_to_ns(instructions));
    }

    /// Charge a per-byte CPU cost, the unit the paper uses for compression
    /// ("eight instructions per byte", "20 instructions per byte").
    pub fn charge_cpu_per_byte(&self, bytes: usize, instr_per_byte: u32) {
        self.charge_cpu(bytes as u64 * instr_per_byte as u64);
    }
}

impl std::fmt::Debug for SimContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimContext")
            .field("now_ns", &self.now_ns())
            .field("cpu", &self.cpu)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_io_random_includes_seek() {
        let ctx = SimContext::default_1992();
        let disk = DeviceProfile::magnetic_disk_1992();
        ctx.charge_io(&disk, 8192, false);
        let t1 = ctx.now_ns();
        assert!(t1 >= disk.seek_ns, "random I/O must pay the seek cost");
        ctx.reset();
        ctx.charge_io(&disk, 8192, true);
        let t2 = ctx.now_ns();
        assert!(t2 < t1, "sequential I/O must be cheaper than random");
        assert_eq!(t2, disk.transfer_ns(8192));
    }

    #[test]
    fn cpu_charge_scales_with_instr_per_byte() {
        let ctx = SimContext::default_1992();
        ctx.charge_cpu_per_byte(4096, 8);
        let fast = ctx.now_ns();
        ctx.reset();
        ctx.charge_cpu_per_byte(4096, 20);
        let tight = ctx.now_ns();
        // Rounding in instructions_to_ns allows 1 ns of slack.
        assert!(tight.abs_diff(fast * 20 / 8) <= 1, "tight={tight} fast={fast}");
    }

    #[test]
    fn clone_shares_clock() {
        let ctx = SimContext::default_1992();
        let ctx2 = ctx.clone();
        ctx.charge_cpu(1_000_000);
        assert_eq!(ctx.now_ns(), ctx2.now_ns());
        assert!(ctx2.now_ns() > 0);
    }

    #[test]
    fn now_secs_converts() {
        let ctx = SimContext::default_1992();
        ctx.clock().advance_ns(2_500_000_000);
        assert!((ctx.now_secs() - 2.5).abs() < 1e-9);
    }
}
