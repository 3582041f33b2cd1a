//! Model checks for pglo's load-bearing lock-free protocols.
//!
//! The protocols under test live next to the code they serve — extracted
//! onto the `loom` facade (see `shims/loom`) precisely so the *same* code
//! runs in production and under the model checker:
//!
//! * `pglo_buffer::protocol::FrameState` — the frame state word
//!   (pin/valid/retire CAS protocol) and the `pub_rel`/`pub_sb`
//!   publish/revalidate hints the lock-free pin fast path reads.
//! * `pglo_buffer::protocol::{PendingQueue, PendingLink}` — the Treiber
//!   pending-frame stack captured at commit.
//! * `pglo_wal::group::GroupFlush` — group-commit flush-slot leader
//!   election.
//! * `pglo_txn::horizon::VisibleTs` — the visible-timestamp horizon.
//!
//! The real tests are in `tests/model.rs`, gated on the `model` feature:
//!
//! ```text
//! cargo test -p pglo-model-tests --features model
//! ```
//!
//! Feature-off (the tier-1 `cargo test --workspace` build) the facade
//! re-exports std/parking_lot and every `check` reduces to one plain
//! execution — a smoke run proving the harness itself links and the
//! closures are race-free enough to run once.
//!
//! Tuning: `PGLO_MODEL_BUDGET` caps executions per check,
//! `PGLO_MODEL_SCHEDULE_DIR` is where failing schedules are persisted
//! (default `target/pglo-model/`). A persisted `<name>.schedule` file
//! replays deterministically via `loom::replay` — commit one as a
//! regression when a check ever finds a real bug.

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

/// Exploration options shared by the heavier protocol checks: a tighter
/// execution budget than the `Opts::default()` 50k, because the protocol
/// state spaces are larger than the litmus tests' and CI wall-clock is a
/// budget too. `PGLO_MODEL_BUDGET` still overrides.
// LINT: allow(R14, the model-check budget; this crate's model tests are its only users by design)
pub fn protocol_opts() -> loom::Opts {
    let mut opts = loom::Opts::default();
    if std::env::var("PGLO_MODEL_BUDGET").is_err() {
        opts.max_execs = 20_000;
    }
    opts
}

#[cfg(test)]
mod smoke {
    /// The harness runs in both modes: feature-off this is one plain
    /// execution; feature-on it is a tiny exhaustive exploration.
    #[test]
    fn harness_links_and_runs() {
        let report = loom::check(|| {
            let state = pglo_buffer::protocol::FrameState::new();
            state.set_valid();
            let (pinned, _) = state.try_pin_valid();
            assert!(pinned, "fresh valid frame must pin");
            state.unpin();
            assert_eq!(state.try_retire(), Some(true));
        })
        .unwrap_or_else(|cex| panic!("smoke check failed: {}", cex.message));
        assert!(report.execs >= 1);
    }
}
