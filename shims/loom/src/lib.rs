//! In-repo shim of the `loom` model-checker facade (offline build).
//!
//! Production crates import their concurrency primitives from this crate
//! instead of `std::sync` / `parking_lot`:
//!
//! ```ignore
//! use loom::sync::atomic::{AtomicU64, Ordering};
//! use loom::sync::Mutex;
//! ```
//!
//! In a **normal build** (the default) every name is a zero-cost re-export of
//! the real type — `std::sync::atomic` atomics, the rank-checked
//! `parking_lot` shim mutex, `std::thread` — exactly the ZST pattern the
//! `parking_lot` lockcheck shim uses. Nothing changes for release binaries.
//!
//! Under the **`model` feature** (or `--cfg pglo_model`) the same names route
//! through a cooperative scheduler (`rt`) that runs each closure passed to
//! [`check`] many times, exploring thread interleavings with a
//! bounded-preemption DFS. Every atomic access is a scheduling point, and
//! loads may observe *any* store the C11 memory model permits for the chosen
//! orderings (per-location store history + vector clocks), so a missing
//! `Release`/`Acquire` produces the stale read it permits instead of
//! whatever the host CPU happens to do. A failing interleaving is reported
//! as a [`Counterexample`] whose schedule is persisted to a file and can be
//! replayed deterministically with [`replay`] — a committable regression.
//!
//! Model limitations (documented, deliberate): at most [`MAX_TASKS`] threads
//! per execution, `SeqCst` is treated as `AcqRel` (no global SC order — too
//! strong orderings are never reported as bugs, absent ones are),
//! `compare_exchange_weak` never fails spuriously, and objects must be
//! created inside the model closure.

#[cfg(any(feature = "model", pglo_model))]
pub mod rt;

/// Maximum number of concurrent tasks a modeled execution may create
/// (including the root task). Vector clocks are fixed-size arrays of this
/// length; the protocols under test need at most four threads.
pub const MAX_TASKS: usize = 5;

pub mod sync {
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        #[cfg(not(any(feature = "model", pglo_model)))]
        pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

        #[cfg(any(feature = "model", pglo_model))]
        pub use crate::rt::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    }

    #[cfg(not(any(feature = "model", pglo_model)))]
    pub use parking_lot::{Mutex, MutexGuard};

    #[cfg(any(feature = "model", pglo_model))]
    pub use crate::rt::{Mutex, MutexGuard};
}

pub mod thread {
    #[cfg(not(any(feature = "model", pglo_model)))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(any(feature = "model", pglo_model))]
    pub use crate::rt::{spawn, yield_now, JoinHandle};
}

pub mod hint {
    #[cfg(not(any(feature = "model", pglo_model)))]
    pub use std::hint::spin_loop;

    #[cfg(any(feature = "model", pglo_model))]
    pub use crate::rt::spin_loop;
}

/// Exploration budget and bounds for one [`check`] call.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Maximum number of executions (interleavings) to explore before
    /// declaring the (possibly incomplete) search finished. Overridable via
    /// `PGLO_MODEL_BUDGET`.
    pub max_execs: u64,
    /// Maximum preemptive context switches per execution (switching away
    /// from a still-runnable thread). 2–3 catches almost all real bugs while
    /// keeping the state space tractable.
    pub preemption_bound: u32,
    /// Per-execution step limit; exceeding it is reported as a livelock.
    pub max_steps: u64,
}

impl Default for Opts {
    fn default() -> Self {
        let max_execs =
            std::env::var("PGLO_MODEL_BUDGET").ok().and_then(|v| v.parse().ok()).unwrap_or(50_000);
        Opts { max_execs, preemption_bound: 3, max_steps: 20_000 }
    }
}

/// Outcome of a completed (counterexample-free) exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions actually explored.
    pub execs: u64,
    /// True when the DFS exhausted the bounded search space; false when it
    /// stopped on `max_execs`.
    pub complete: bool,
}

/// A failing interleaving: the assertion (or deadlock/livelock) message plus
/// the schedule that reproduces it deterministically.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What failed (panic payload, "deadlock", or "livelock").
    pub message: String,
    /// Choice sequence reproducing the failure; feed to [`replay`].
    pub schedule: Vec<u32>,
    /// Executions explored before the failure surfaced.
    pub execs: u64,
    /// Where the schedule was persisted (when a name was given).
    pub schedule_file: Option<std::path::PathBuf>,
}

impl Counterexample {
    /// The schedule as the comma-separated text stored in schedule files.
    pub fn schedule_text(&self) -> String {
        let parts: Vec<String> = self.schedule.iter().map(|c| c.to_string()).collect();
        parts.join(",")
    }
}

/// Parse the contents of a persisted schedule file.
pub fn parse_schedule(text: &str) -> Vec<u32> {
    text.split(',').filter_map(|p| p.trim().parse().ok()).collect()
}

#[cfg(any(feature = "model", pglo_model))]
pub use rt::{check, check_named, model, replay};

#[cfg(not(any(feature = "model", pglo_model)))]
mod fallback {
    use super::{Counterexample, Opts, Report};

    /// Non-model build: run the closure once on the current thread.
    pub fn model<F: FnOnce()>(f: F) {
        f();
    }

    /// Non-model build: a single straight-line execution, no exploration.
    pub fn check<F: Fn() + Send + Sync + 'static>(f: F) -> Result<Report, Counterexample> {
        f();
        Ok(Report { execs: 1, complete: false })
    }

    /// Non-model build: same as [`check`]; the name is ignored.
    pub fn check_named<F: Fn() + Send + Sync + 'static>(
        _name: &str,
        _opts: &Opts,
        f: F,
    ) -> Result<Report, Counterexample> {
        check(f)
    }

    /// Non-model build: replay is a single plain run.
    pub fn replay<F: Fn() + Send + Sync + 'static>(f: F, _schedule: &[u32]) -> Result<(), String> {
        f();
        Ok(())
    }
}

#[cfg(not(any(feature = "model", pglo_model)))]
pub use fallback::{check, check_named, model, replay};
