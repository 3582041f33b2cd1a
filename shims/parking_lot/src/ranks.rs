//! The workspace lock-rank table — single source of truth in code.
//!
//! Lower rank = acquired earlier (outermost). One thread may hold locks
//! only in strictly increasing rank order, and never two locks of the
//! same rank (that is how "at most one buffer-pool frame latch at a time"
//! is enforced: every frame latch shares [`POOL_FRAME`]).

use crate::LockRank;

/// Worker inbox (`crates/server`): freshly accepted connections parked
/// by the acceptor for the owning worker to adopt. Pushed and taken
/// holding nothing else.
pub const SERVER_WORKER_INBOX: LockRank = LockRank::new(8, "server.worker_inbox");

/// The vacuum latch in `StorageEnv` (`crates/heap`): one `Heap::vacuum`
/// pass at a time. Held across the whole pass — opening and deleting from
/// indexes (the latch map, relation latches), pins and the caller's key
/// evaluation — so it is the outermost lock of the storage layers.
pub const ENV_VACUUM: LockRank = LockRank::new(11, "heap.env.vacuum");

/// Background-writer handle slot in `StorageEnv` (`crates/heap`); held
/// across thread join at shutdown, so everything the bgwriter itself
/// takes (frames, smgr) must rank higher.
pub const ENV_BGWRITER: LockRank = LockRank::new(12, "heap.env.bgwriter");

/// Checkpointer-thread handle slot in `StorageEnv` (`crates/heap`); held
/// across thread join at shutdown, like [`ENV_BGWRITER`].
pub const ENV_CHECKPOINTER: LockRank = LockRank::new(13, "heap.env.checkpointer");

/// The outcome-table file in `StorageEnv` (`crates/heap`); held across
/// one checkpoint pass's table write, while the pass reads the WAL's
/// commit pins and the transaction manager's outcomes.
pub const ENV_XACT: LockRank = LockRank::new(15, "heap.env.xact");

/// Catalog writer (`crates/heap`): serializes class mutations, each held
/// across its row's insert, update or delete in the class heap and the
/// commit, so everything those take (frames, log, smgr, transaction
/// manager, then the class map under [`CATALOG`]) ranks higher.
pub const CATALOG_WRITER: LockRank = LockRank::new(16, "heap.catalog_writer");

/// The map of per-relation latches in `StorageEnv` (`crates/heap`); held
/// only to clone a latch out. Above the catalog writer: a class's index
/// is opened, and made, in the transaction that writes the class row.
pub const ENV_REL_LATCHES: LockRank = LockRank::new(18, "heap.env.rel_latches");

/// A per-relation B-tree latch (`StorageEnv::rel_latch`); held across
/// whole index operations, i.e. across buffer-pool pins and smgr I/O.
pub const REL_LATCH: LockRank = LockRank::new(20, "heap.rel_latch");

/// Heap catalog state (`crates/heap`): the class map; self-contained:
/// catalog methods never pin pages, take pool locks or do file I/O while
/// holding it.
pub const CATALOG: LockRank = LockRank::new(24, "heap.catalog");

/// Temporary large-object registry (`crates/core`).
pub const TEMP_REGISTRY: LockRank = LockRank::new(26, "core.temp_registry");

/// Buffer-pool read-ahead window state (`crates/buffer`); taken before
/// the page table in the prefetch planner, and only once the observed
/// read-latency EWMA has engaged the gate.
pub const POOL_READAHEAD: LockRank = LockRank::new(28, "buffer.readahead");

/// The buffer pool's page table (`crates/buffer`). Guards misses,
/// evictions, and re-keying only — pool hits ride the lock-free fast
/// path and never take it.
pub const POOL_TABLE: LockRank = LockRank::new(30, "buffer.page_table");

/// Serializes page-image capture batches (`crates/buffer`): one capture
/// at a time encodes pending frames, batch-appends to the WAL, and
/// stamps LSNs back. Taken before the frame latches the capture visits.
pub const POOL_CAPTURE: LockRank = LockRank::new(38, "buffer.capture");

/// A buffer-pool frame latch (`crates/buffer`). Taken after the page
/// table (rule 1); flushers reach frames only via `try_*` (rule 2).
pub const POOL_FRAME: LockRank = LockRank::new(40, "buffer.frame");

/// The buffer pool's page allocation (`crates/buffer`): spare pages
/// allocated ahead of the frames whose first install takes them, and the
/// count of frames that hold one. Taken under a frame latch, around
/// nothing but the allocator; leaf.
pub const POOL_PAGES: LockRank = LockRank::new(42, "buffer.pages");

/// WAL group-commit flush slot (`crates/wal`): committers park here and
/// ride the leader's fsync. The leader snapshots the appender under this
/// lock, so it must rank *below* [`WAL_APPEND`]; buffer writeback calls
/// `flush_to` under a frame latch, so it must rank above [`POOL_FRAME`].
pub const WAL_FLUSH: LockRank = LockRank::new(44, "wal.flush");

/// WAL appender state (`crates/wal`): tail segment file + end LSN. The
/// log's serialization point; buffer write-back forces the log under a
/// frame latch, so this sits between [`POOL_FRAME`] and the smgr ranks.
pub const WAL_APPEND: LockRank = LockRank::new(46, "wal.append");

/// WAL pinned-record map (`crates/wal`): oldest live LSN per
/// `(smgr, rel)` for log-resident storage managers. Pins are noted
/// under buffer frame latches (write-back) and the checkpoint prune
/// holds this lock while asking the WORM manager which relations still
/// have staged blocks, so it sits between [`WAL_APPEND`] and the smgr
/// ranks.
pub const WAL_PINS: LockRank = LockRank::new(48, "wal.pins");

/// The storage-manager dispatch table (`crates/smgr`); read on every
/// device I/O, including under a frame latch.
pub const SMGR_SWITCH: LockRank = LockRank::new(50, "smgr.switch_table");

/// `DiskSmgr` open-file cache (`crates/smgr`).
pub const SMGR_DISK_FILES: LockRank = LockRank::new(52, "smgr.disk.files");

/// `MemSmgr` relation map (`crates/smgr`).
pub const SMGR_MEM_RELS: LockRank = LockRank::new(53, "smgr.mem.rels");

/// `WormSmgr` state: relation directory + block cache (`crates/smgr`).
pub const SMGR_WORM: LockRank = LockRank::new(54, "smgr.worm.inner");

/// `NativeSmgr` charge accounting (`crates/smgr`).
pub const SMGR_NATIVE: LockRank = LockRank::new(55, "smgr.native.state");

/// Sequential-access tracker for read charging (`crates/smgr`).
pub const SMGR_SEQ: LockRank = LockRank::new(56, "smgr.seq_tracker");

/// What each transaction owes its relation files, in `StorageEnv`
/// (`crates/heap`); held only to read or update the map, never across
/// the log or a file operation.
pub const ENV_OWED: LockRank = LockRank::new(57, "heap.env.owed");

/// Transaction-manager state (`crates/txn`); taken during visibility
/// checks while heap scans hold a frame read latch, so it must rank
/// above [`POOL_FRAME`].
pub const TXN_MANAGER: LockRank = LockRank::new(60, "txn.manager");

/// ADT type registry (`crates/adt`); leaf, never nested.
pub const ADT_TYPES: LockRank = LockRank::new(70, "adt.types");

/// ADT function registry (`crates/adt`); leaf, never nested.
pub const ADT_FUNCS: LockRank = LockRank::new(72, "adt.funcs");

/// ADT operator registry (`crates/adt`); leaf, never nested.
pub const ADT_OPERATORS: LockRank = LockRank::new(74, "adt.operators");

/// A `SimVfs`'s files, op log and fuse (`crates/smgr`, test support):
/// taken inside file operations, under whatever their callers hold; leaf.
pub const SMGR_SIM_VFS: LockRank = LockRank::new(90, "smgr.sim_vfs");
