//! Runtime lock-rank checker — layer 1 of the workspace correctness
//! tooling (layer 2 is the `pglo-lint` static pass).
//!
//! Active under `debug_assertions` or the `lockcheck` feature; otherwise
//! every type here is zero-sized and every call compiles to nothing.
//!
//! The checker maintains, per thread, a stack of currently-held ranked
//! locks (each entry remembers the acquisition site via
//! `std::panic::Location`). A *blocking* acquisition of rank `r` while any
//! held lock has rank `>= r` is a violation: the panic names the lock
//! being acquired, the conflicting held lock, and both acquisition sites.
//! Equal ranks are a violation too — that is how "at most one buffer-pool
//! frame latch at a time" is encoded (all frame latches share one rank).
//!
//! Release is not required to be LIFO: guards carry a removal token, so
//! patterns like the buffer pool's claim path (take page table, take
//! frame, drop table first, keep the frame guard) are tracked correctly.
//!
//! Independently of the rank policy, every first-seen blocking acquisition
//! order `(held → acquired)` is recorded in a global acquisition-order
//! graph with the two sites that produced it. The graph serves two
//! purposes: violation panics can cite where the *documented* order was
//! first observed, and edge insertion runs a cycle check so that even if
//! the rank policy were ever relaxed (e.g. distinct locks sharing a rank
//! class), a contradictory pair of orders across runs of one process
//! still panics with both sides named.
//!
//! `try_*` acquisitions never block, so they add no order edges and are
//! not checked (DESIGN.md rule 2: flushers and the bgwriter take frame
//! locks only via `try_*`, skipping rather than waiting). A successful
//! `try_*` is still pushed as held, so later blocking acquisitions on the
//! same thread are checked against it.

/// Whether the checker is compiled into this build.
pub const fn active() -> bool {
    cfg!(any(debug_assertions, feature = "lockcheck"))
}

#[cfg(any(debug_assertions, feature = "lockcheck"))]
pub(crate) use imp::{Held, Meta};
#[cfg(not(any(debug_assertions, feature = "lockcheck")))]
pub(crate) use noop::{Held, Meta};

#[cfg(any(debug_assertions, feature = "lockcheck"))]
pub use imp::held_ranks;

#[cfg(any(debug_assertions, feature = "lockcheck"))]
mod imp {
    use crate::LockRank;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

    // This module deliberately uses `std::sync` primitives: the checker
    // cannot run on the locks it instruments. `pglo-lint` exempts shims/
    // from the no-std-sync rule for exactly this reason.

    struct HeldEntry {
        /// Removal token carried by the guard (release may be out of
        /// LIFO order).
        id: u64,
        rank: u32,
        name: &'static str,
        /// Lock identity, to distinguish re-entry from an equal-rank peer.
        addr: usize,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
        // Per-thread cache of edges already in the global graph, so the
        // steady state takes no global lock.
        static KNOWN_EDGES: RefCell<HashSet<(u32, u32)>> =
            RefCell::new(HashSet::new());
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    struct EdgeInfo {
        from_name: &'static str,
        to_name: &'static str,
        /// Site that acquired (and still held) the `from` lock.
        from_site: &'static Location<'static>,
        /// Site of the blocking acquisition of the `to` lock.
        to_site: &'static Location<'static>,
    }

    fn edges() -> &'static StdMutex<HashMap<(u32, u32), EdgeInfo>> {
        static EDGES: OnceLock<StdMutex<HashMap<(u32, u32), EdgeInfo>>> = OnceLock::new();
        EDGES.get_or_init(|| StdMutex::new(HashMap::new()))
    }

    /// Ranks currently held by this thread, outermost first. Test hook.
    pub fn held_ranks() -> Vec<(u32, &'static str)> {
        HELD.with(|cell| cell.borrow().iter().map(|e| (e.rank, e.name)).collect())
    }

    /// Removal token for one held-stack entry; pops it on drop. `None`
    /// for unranked locks, which the checker does not track.
    pub(crate) struct Held(Option<u64>);

    impl Drop for Held {
        fn drop(&mut self) {
            if let Some(id) = self.0 {
                // try_with: guards may outlive the thread-local during
                // thread teardown.
                let _ = HELD.try_with(|cell| {
                    let mut held = cell.borrow_mut();
                    if let Some(pos) = held.iter().rposition(|e| e.id == id) {
                        held.remove(pos);
                    }
                });
            }
        }
    }

    #[derive(Clone, Copy)]
    pub(crate) struct Meta(Option<LockRank>);

    impl Meta {
        pub(crate) const fn none() -> Self {
            Meta(None)
        }

        pub(crate) const fn ranked(rank: LockRank) -> Self {
            Meta(Some(rank))
        }

        /// Order-check a blocking acquisition, record its order edge, and
        /// push it as held. Panics on a rank violation, naming both sites.
        #[track_caller]
        pub(crate) fn before_blocking(&self, addr: usize) -> Held {
            let Some(rank) = self.0 else { return Held(None) };
            let site = Location::caller();
            let conflict = HELD.with(|cell| {
                let held = cell.borrow();
                held.iter().find(|e| e.rank >= rank.rank).map(|e| (e.rank, e.name, e.addr, e.site))
            });
            if let Some((held_rank, held_name, held_addr, held_site)) = conflict {
                panic!(
                    "{}",
                    violation_message(
                        &rank,
                        site,
                        held_rank,
                        held_name,
                        held_addr == addr,
                        held_site
                    )
                );
            }
            HELD.with(|cell| {
                // Record order edges before pushing: every held lock
                // legally precedes this acquisition.
                {
                    let held = cell.borrow();
                    for e in held.iter() {
                        record_edge(e.rank, e.name, e.site, &rank, site);
                    }
                }
                let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                cell.borrow_mut().push(HeldEntry {
                    id,
                    rank: rank.rank,
                    name: rank.name,
                    addr,
                    site,
                });
                Held(Some(id))
            })
        }

        /// Track a successful non-blocking acquisition: no order check, no
        /// edge (it could not have deadlocked by waiting), but it counts
        /// as held from now on.
        #[track_caller]
        pub(crate) fn after_try(&self, addr: usize) -> Held {
            let Some(rank) = self.0 else { return Held(None) };
            let site = Location::caller();
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            HELD.with(|cell| {
                cell.borrow_mut().push(HeldEntry {
                    id,
                    rank: rank.rank,
                    name: rank.name,
                    addr,
                    site,
                });
            });
            Held(Some(id))
        }
    }

    fn violation_message(
        acq: &LockRank,
        acq_site: &Location<'_>,
        held_rank: u32,
        held_name: &str,
        same_lock: bool,
        held_site: &Location<'_>,
    ) -> String {
        let kind = if held_rank == acq.rank {
            if same_lock {
                "re-entrant acquisition of the same lock"
            } else {
                "a second lock of the same rank (at most one may be held)"
            }
        } else {
            "rank inversion (locks must be acquired in increasing rank order)"
        };
        let mut msg = format!(
            "lock-rank violation: blocking acquisition of \"{}\" (rank {}) at {} \
             while holding \"{}\" (rank {}) acquired at {} — {}; \
             see the lock-rank table in shims/parking_lot/src/ranks.rs",
            acq.name, acq.rank, acq_site, held_name, held_rank, held_site, kind,
        );
        // If the opposite (legal) order was ever observed, cite where.
        if held_rank > acq.rank {
            let map = edges().lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(e) = map.get(&(acq.rank, held_rank)) {
                msg.push_str(&format!(
                    "; the documented order \"{}\" -> \"{}\" was first observed held at {} / acquired at {}",
                    e.from_name, e.to_name, e.from_site, e.to_site,
                ));
            }
        }
        msg
    }

    fn record_edge(
        from_rank: u32,
        from_name: &'static str,
        from_site: &'static Location<'static>,
        to: &LockRank,
        to_site: &'static Location<'static>,
    ) {
        let key = (from_rank, to.rank);
        if KNOWN_EDGES.with(|k| k.borrow().contains(&key)) {
            return;
        }
        let mut map = edges().lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(key).or_insert(EdgeInfo { from_name, to_name: to.name, from_site, to_site });
        // Cycle check: if the acquired lock can already reach the held
        // lock through recorded orders, the graph is contradictory.
        if let Some(path) = reach(&map, to.rank, from_rank) {
            let back = map.get(&key).expect("edge just inserted");
            let msg = format!(
                "lock-order cycle: \"{}\" -> \"{}\" observed (held at {} / acquired at {}), \
                 but the reverse order already exists via ranks {:?}",
                back.from_name, back.to_name, back.from_site, back.to_site, path,
            );
            drop(map);
            panic!("{msg}");
        }
        drop(map);
        KNOWN_EDGES.with(|k| k.borrow_mut().insert(key));
    }

    /// Depth-first reachability over the recorded order graph; returns the
    /// rank path from `start` to `target` if one exists.
    fn reach(map: &HashMap<(u32, u32), EdgeInfo>, start: u32, target: u32) -> Option<Vec<u32>> {
        let mut stack = vec![(start, vec![start])];
        let mut seen = HashSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == target {
                return Some(path);
            }
            if !seen.insert(node) {
                continue;
            }
            for (&(a, b), _) in map.iter() {
                if a == node {
                    let mut next = path.clone();
                    next.push(b);
                    stack.push((b, next));
                }
            }
        }
        None
    }
}

#[cfg(not(any(debug_assertions, feature = "lockcheck")))]
mod noop {
    use crate::LockRank;

    #[derive(Clone, Copy)]
    pub(crate) struct Meta;

    impl Meta {
        pub(crate) const fn none() -> Self {
            Meta
        }

        pub(crate) const fn ranked(_rank: LockRank) -> Self {
            Meta
        }

        #[inline(always)]
        pub(crate) fn before_blocking(&self, _addr: usize) -> Held {
            Held
        }

        #[inline(always)]
        pub(crate) fn after_try(&self, _addr: usize) -> Held {
            Held
        }
    }

    /// Zero-sized stand-in; the release-mode guard carries no state.
    pub(crate) struct Held;
}
