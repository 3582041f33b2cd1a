//! Tests for the runtime lock-rank checker (DESIGN.md "Ordering rules").
//!
//! Compiled only when the checker is: under `debug_assertions` or the
//! `lockcheck` feature.
#![cfg(any(debug_assertions, feature = "lockcheck"))]

use parking_lot::{lockcheck, LockRank, Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};

const OUTER: LockRank = LockRank::new(100, "test.outer");
const INNER: LockRank = LockRank::new(200, "test.inner");
const PEER_A: LockRank = LockRank::new(300, "test.peer");
const PEER_B: LockRank = LockRank::new(300, "test.peer");

/// Run `f` and return the panic message it died with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("panic payload was not a string");
    }
}

#[test]
fn checker_is_active_in_this_build() {
    assert!(lockcheck::active());
}

#[test]
fn ascending_rank_order_is_clean() {
    let outer = Mutex::with_rank((), OUTER);
    let inner = RwLock::with_rank((), INNER);
    let _o = outer.lock();
    let _i = inner.write();
    assert_eq!(lockcheck::held_ranks(), vec![(100, "test.outer"), (200, "test.inner")]);
}

#[test]
fn rank_inversion_panics_with_both_sites() {
    // Ranks unique to this test: the edge graph is global to the
    // process, and an edge recorded by another test would add its
    // "first observed" sites to the message.
    let outer = Mutex::with_rank((), LockRank::new(110, "test.inv_outer"));
    let inner = Mutex::with_rank((), LockRank::new(210, "test.inv_inner"));
    let msg = panic_message(|| {
        let _i = inner.lock(); // the "held" site
        let _o = outer.lock(); // the violating acquisition
    });
    assert!(msg.contains("lock-rank violation"), "{msg}");
    assert!(msg.contains("rank inversion"), "{msg}");
    // Both lock names and both acquisition sites are cited.
    assert!(msg.contains("\"test.inv_outer\" (rank 110)"), "{msg}");
    assert!(msg.contains("\"test.inv_inner\" (rank 210)"), "{msg}");
    assert_eq!(msg.matches("tests/lockcheck.rs:").count(), 2, "{msg}");
}

#[test]
fn violation_cites_first_observed_legal_order() {
    let outer = Mutex::with_rank((), OUTER);
    let inner = Mutex::with_rank((), INNER);
    // Establish the legal order once so the edge graph records it.
    {
        let _o = outer.lock();
        let _i = inner.lock();
    }
    let msg = panic_message(|| {
        let _i = inner.lock();
        let _o = outer.lock();
    });
    assert!(msg.contains("first observed"), "{msg}");
    assert!(msg.contains("\"test.outer\" -> \"test.inner\""), "{msg}");
    // Two conflicting sites + the two recorded legal-order sites.
    assert_eq!(msg.matches("tests/lockcheck.rs:").count(), 4, "{msg}");
}

#[test]
fn same_rank_second_lock_is_caught() {
    // Models "at most one buffer-pool frame latch at a time": every
    // frame latch shares one rank, so holding two is a violation.
    let frame_a = Mutex::with_rank((), PEER_A);
    let frame_b = Mutex::with_rank((), PEER_B);
    let msg = panic_message(|| {
        let _a = frame_a.lock();
        let _b = frame_b.lock();
    });
    assert!(msg.contains("second lock of the same rank"), "{msg}");
    assert!(msg.contains("\"test.peer\" (rank 300)"), "{msg}");
}

#[test]
fn same_lock_reentry_is_caught() {
    let l = RwLock::with_rank((), PEER_A);
    let msg = panic_message(|| {
        let _r1 = l.read();
        let _r2 = l.read(); // can deadlock against a queued writer
    });
    assert!(msg.contains("re-entrant acquisition"), "{msg}");
}

#[test]
fn try_acquisitions_are_exempt_from_order_checks() {
    // DESIGN.md rule 2: flushers/bgwriter only try-lock frames, so a
    // try_* in "wrong" order must not panic — it cannot block.
    let outer = Mutex::with_rank((), OUTER);
    let inner = RwLock::with_rank((), INNER);
    let _i = inner.write();
    let o = outer.try_lock();
    assert!(o.is_some(), "uncontended try_lock must succeed");
}

#[test]
fn try_held_locks_still_check_later_blocking_acquisitions() {
    // The try acquisition itself is exempt, but what it holds is real:
    // a later blocking acquisition below it is still an inversion.
    let outer = Mutex::with_rank((), OUTER);
    let inner = RwLock::with_rank((), INNER);
    let msg = panic_message(|| {
        let _i = inner.try_write().expect("uncontended");
        let _o = outer.lock();
    });
    assert!(msg.contains("rank inversion"), "{msg}");
}

#[test]
fn out_of_order_release_is_tracked() {
    // The buffer pool's claim path: take page table, take frame, release
    // the table first, keep the frame guard. Tokens, not LIFO.
    let table = Mutex::with_rank((), OUTER);
    let frame = RwLock::with_rank((), INNER);
    let t = table.lock();
    let _f = frame.write();
    drop(t);
    assert_eq!(lockcheck::held_ranks(), vec![(200, "test.inner")]);
    // With the table released, re-acquiring it would still be an
    // inversion against the held frame — but a fresh OUTER after
    // dropping everything is clean.
    drop(_f);
    assert_eq!(lockcheck::held_ranks(), vec![]);
    let _t2 = table.lock();
}

#[test]
fn unranked_locks_are_invisible_to_the_checker() {
    let ranked = Mutex::with_rank((), INNER);
    let plain = Mutex::new(());
    let _r = ranked.lock();
    let _p = plain.lock(); // no rank: never checked, never held
    assert_eq!(lockcheck::held_ranks(), vec![(200, "test.inner")]);
}
