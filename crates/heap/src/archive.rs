//! Archive vacuuming: migrate dead tuple versions to an archive class.
//!
//! The POSTGRES storage system kept history by *moving* superseded tuple
//! versions out of the live class into an archive — typically on cheaper
//! write-once media — instead of discarding them (\[STON87B\]; the paper's §7
//! WORM storage manager exists largely for this). [`archive_vacuum`]
//! implements that migration: versions dead to everyone as of a horizon are
//! rewritten into an archive heap (stamped with their commit *timestamps*,
//! which are stable across process restarts, unlike XIDs) and reclaimed
//! from the live heap. Time-travel reads then consult the live heap and
//! the archive together ([`scan_as_of_with_archive`]).

use crate::heap::Heap;
use crate::{AccessHint, HeapError, Result};
use pglo_pages::Tid;
use pglo_txn::{Txn, TxnStatus, Visibility};

/// Archive record prefix: `[tmin_ts u64][tmax_ts u64]` before the payload.
const ARCHIVE_HDR: usize = 16;

/// A version migrated to the archive.
struct ArchivedVersion {
    /// Commit timestamp of the inserting transaction.
    tmin_ts: u64,
    /// Commit timestamp of the deleting/superseding transaction.
    tmax_ts: u64,
    /// The payload.
    payload: Vec<u8>,
}

fn encode_archived(tmin_ts: u64, tmax_ts: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ARCHIVE_HDR + payload.len());
    out.extend_from_slice(&tmin_ts.to_le_bytes());
    out.extend_from_slice(&tmax_ts.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_archived(data: &[u8]) -> Result<ArchivedVersion> {
    let Some((&[t0, t1, t2, t3, t4, t5, t6, t7, m0, m1, m2, m3, m4, m5, m6, m7], payload)) =
        data.split_first_chunk::<ARCHIVE_HDR>()
    else {
        return Err(HeapError::Catalog("archive record shorter than its header".into()));
    };
    Ok(ArchivedVersion {
        tmin_ts: u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]),
        tmax_ts: u64::from_le_bytes([m0, m1, m2, m3, m4, m5, m6, m7]),
        payload: payload.to_vec(),
    })
}

/// Migrate every version of `live` that is dead to all current and future
/// readers — deleted by a transaction that committed at or before
/// `horizon` — into `archive`, then reclaim it from `live`. Aborted
/// inserts are reclaimed without archiving (they were never visible).
///
/// Returns `(archived, reclaimed)` counts. The archive writes happen under
/// `txn`; committing it makes the migration durable. `unindex` is
/// [`Heap::vacuum`]'s: it takes the reclaimed versions out of `live`'s
/// indexes.
// LINT: allow(R14, vacuum into an archive heap; only examples/archive_vacuum.rs drives it, no server path archives yet)
pub fn archive_vacuum<E: From<HeapError>>(
    live: &Heap,
    archive: &Heap,
    txn: &Txn,
    horizon: u64,
    unindex: impl FnMut(Tid, &[u8]) -> std::result::Result<(), E>,
) -> std::result::Result<(usize, usize), E> {
    let tm = live.env().txns();
    let mut archived = 0;
    // Pass 1: copy dead versions to the archive.
    let doomed: Vec<_> = live.scan(Visibility::Raw).collect::<std::result::Result<Vec<_>, _>>()?;
    for (tid, payload) in &doomed {
        let Some(hdr) =
            live.fetch_with(*tid, &Visibility::Raw, AccessHint::Random, |hdr, _| hdr)?
        else {
            continue;
        };
        let aborted_insert = tm.status(hdr.xmin) == TxnStatus::Aborted;
        if aborted_insert {
            continue; // reclaimed by the vacuum pass below, never archived
        }
        let Some(tmax_ts) = (if hdr.xmax.is_valid() { tm.commit_ts(hdr.xmax) } else { None })
        else {
            continue; // still live (or deleter aborted): stays in the heap
        };
        if tmax_ts > horizon {
            continue; // some reader may still need it in place
        }
        let tmin_ts = tm.commit_ts(hdr.xmin).unwrap_or(0);
        archive.insert(txn, &encode_archived(tmin_ts, tmax_ts, payload))?;
        archived += 1;
    }
    // Pass 2: reclaim them from the live heap.
    let reclaimed = live.vacuum(horizon, unindex)?;
    Ok((archived, reclaimed))
}

/// All archived versions visible as of commit timestamp `ts`, i.e. with
/// `tmin_ts <= ts < tmax_ts`.
pub fn archive_versions_as_of(archive: &Heap, ts: u64) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for item in archive.scan(Visibility::Raw) {
        let (_tid, data) = item?;
        let v = decode_archived(&data)?;
        if v.tmin_ts <= ts && ts < v.tmax_ts {
            out.push(v.payload);
        }
    }
    Ok(out)
}

/// A combined as-of read: rows visible at `ts` in the live heap plus the
/// versions that had already migrated to the archive. Together these
/// reconstruct exactly the class contents at `ts`, no matter how much
/// history has been vacuumed out of the live heap.
// LINT: allow(R14, the as-of read over heap plus archive that examples/archive_vacuum.rs shows)
pub fn scan_as_of_with_archive(live: &Heap, archive: &Heap, ts: u64) -> Result<Vec<Vec<u8>>> {
    let mut rows: Vec<Vec<u8>> = live
        .scan(Visibility::AsOf(ts))
        .map(|r| r.map(|(_, payload)| payload))
        .collect::<std::result::Result<_, _>>()?;
    rows.extend(archive_versions_as_of(archive, ts)?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{no_index, StorageEnv};
    use std::sync::Arc;

    fn env() -> (tempfile::TempDir, Arc<StorageEnv>) {
        let dir = tempfile::tempdir().unwrap();
        let env = StorageEnv::open(dir.path()).unwrap();
        (dir, env)
    }

    #[test]
    fn history_migrates_and_remains_readable() {
        let (_d, env) = env();
        let live = Heap::create(&env, "DOC", env.disk_id(), Default::default()).unwrap();
        // Archive lives on the WORM manager — the §7 pairing.
        let archive = Heap::create_anonymous(&env, env.worm_id()).unwrap();

        // Three versions across three transactions.
        let t1 = env.begin();
        let tid1 = live.insert(&t1, b"v1").unwrap();
        let ts1 = t1.commit();
        let t2 = env.begin();
        let tid2 = live.update(&t2, tid1, b"v2").unwrap();
        let ts2 = t2.commit();
        let t3 = env.begin();
        let _tid3 = live.update(&t3, tid2, b"v3").unwrap();
        let ts3 = t3.commit();

        // Archive everything dead as of ts3 (v1 and v2).
        let at = env.begin();
        let (archived, reclaimed) = archive_vacuum(&live, &archive, &at, ts3, no_index).unwrap();
        at.commit();
        assert_eq!(archived, 2);
        assert_eq!(reclaimed, 2);

        // The live heap physically holds only v3 now.
        let raw: Vec<_> = live.scan(Visibility::Raw).map(|r| r.unwrap().1).collect();
        assert_eq!(raw, vec![b"v3".to_vec()]);

        // Combined as-of reads reconstruct every epoch.
        assert_eq!(scan_as_of_with_archive(&live, &archive, ts1).unwrap(), vec![b"v1".to_vec()]);
        assert_eq!(scan_as_of_with_archive(&live, &archive, ts2).unwrap(), vec![b"v2".to_vec()]);
        assert_eq!(scan_as_of_with_archive(&live, &archive, ts3).unwrap(), vec![b"v3".to_vec()]);
        // Naive as-of on the live heap alone now misses history — the
        // archive is load-bearing.
        assert!(live.scan(Visibility::AsOf(ts1)).map(|r| r.unwrap()).next().is_none());
    }

    #[test]
    fn aborted_inserts_reclaimed_not_archived() {
        let (_d, env) = env();
        let live = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let archive = Heap::create_anonymous(&env, env.disk_id()).unwrap();
        let t1 = env.begin();
        live.insert(&t1, b"ghost").unwrap();
        t1.abort();
        let t2 = env.begin();
        live.insert(&t2, b"real").unwrap();
        let ts2 = t2.commit();
        let at = env.begin();
        let (archived, reclaimed) = archive_vacuum(&live, &archive, &at, ts2, no_index).unwrap();
        at.commit();
        assert_eq!(archived, 0, "aborted versions were never visible");
        assert_eq!(reclaimed, 1);
        assert_eq!(archive.scan(Visibility::Raw).count(), 0);
    }

    #[test]
    fn horizon_limits_migration() {
        let (_d, env) = env();
        let live = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let archive = Heap::create_anonymous(&env, env.disk_id()).unwrap();
        let t1 = env.begin();
        let tid = live.insert(&t1, b"v1").unwrap();
        t1.commit();
        let t2 = env.begin();
        let tid2 = live.update(&t2, tid, b"v2").unwrap();
        let ts2 = t2.commit();
        let t3 = env.begin();
        live.update(&t3, tid2, b"v3").unwrap();
        let ts3 = t3.commit();
        // Horizon before v2's death: only v1 migrates.
        let at = env.begin();
        let (archived, _) = archive_vacuum(&live, &archive, &at, ts3 - 1, no_index).unwrap();
        at.commit();
        assert_eq!(archived, 1);
        let (_, first) = archive.scan(Visibility::Raw).next().unwrap().unwrap();
        let first = decode_archived(&first).unwrap();
        assert_eq!(first.payload, b"v1");
        assert_eq!(first.tmax_ts, ts2);
    }

    #[test]
    fn live_rows_and_uncommitted_deletes_stay_put() {
        let (_d, env) = env();
        let live = Heap::create(&env, "T", env.disk_id(), Default::default()).unwrap();
        let archive = Heap::create_anonymous(&env, env.disk_id()).unwrap();
        let t1 = env.begin();
        let keep = live.insert(&t1, b"live").unwrap();
        let pending = live.insert(&t1, b"pending-delete").unwrap();
        t1.commit();
        // An in-progress deleter must not cause migration.
        let deleter = env.begin();
        live.delete(&deleter, pending).unwrap();
        let at = env.begin();
        let horizon = env.txns().current_timestamp();
        let (archived, reclaimed) =
            archive_vacuum(&live, &archive, &at, horizon, no_index).unwrap();
        at.commit();
        assert_eq!((archived, reclaimed), (0, 0));
        deleter.abort();
        let t2 = env.begin();
        assert!(live.fetch(keep, &Visibility::for_txn(&t2)).unwrap().is_some());
        assert!(live.fetch(pending, &Visibility::for_txn(&t2)).unwrap().is_some());
        t2.commit();
    }
}
