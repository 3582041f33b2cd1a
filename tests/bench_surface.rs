//! The workspace surface the benchmark calls, checked at compile time.
//!
//! This file mirrors `crates/bench/src/bin/lobench/src`. lobench is a
//! package of its own, outside the workspace, so no workspace build or
//! test compiles it, and a change to an item it calls would only show
//! when the benchmark fails to build. Each item it calls is bound here to
//! a typed `let` or a fn pointer, so such a change fails this build
//! instead. Keep it in step with lobench: add what lobench starts to
//! call; change an entry only together with lobench itself.

#![allow(unused_imports, reason = "each import checks that lobench's import still resolves")]

use pglo_btree::{keys::u64_key, BTree};
use pglo_buffer::PageKey;
use pglo_core::{LoCursor, LoId, LoSpec, LoStore, OpenMode, UserId, CHUNK_SIZE};
use pglo_heap::json::{self, ParseError, Value};
use pglo_heap::{Catalog, EnvOptions, Heap, StorageEnv};
use pglo_server::loopback::PipeEnd;
use pglo_server::proto::{self, Opcode, Reader, SEEK_SET};
use pglo_server::{
    spawn, Client, ClientError, LoHandle, LobdService, ServerConfig, ServerHandle, Session,
    WireSpec,
};
use pglo_smgr::SmgrId;
use pglo_txn::{Txn, Visibility};
use pglo_wal::{Wal, WalOptions};
use std::path::Path;
use std::sync::Arc;

#[test]
fn items_lobench_calls_keep_their_signatures() {
    // runner.rs: the `heap.catalog.alloc_oid_ns` probe.
    let _: fn(&LobdService) -> &Arc<StorageEnv> = LobdService::env;
    let _: fn(&StorageEnv) -> &Catalog = StorageEnv::catalog;
    let _: fn(&Catalog) -> pglo_heap::Result<u64> = Catalog::alloc_oid;
    // backend.rs: the in-process `core` backend.
    let _: fn(&LoStore, &Txn, &LoSpec) -> pglo_core::Result<LoId> = LoStore::create;
    let _: fn(&LoStore, LoId) -> pglo_core::Result<()> = LoStore::unlink;
    let _: fn() -> LoSpec = LoSpec::fchunk;
    // lobd.rs: the run's fingerprint.
    let _: fn(&StorageEnv) -> &Arc<Wal> = StorageEnv::wal;
    let _: fn(&Wal) -> WalOptions = Wal::options;
    let _: fn(&WalOptions) -> bool = |o| o.durable_sync;
    // probes.rs: the heap and B-tree probes on a store of their own.
    let _: fn(&Path, EnvOptions) -> pglo_heap::Result<Arc<StorageEnv>> =
        |dir, opts| StorageEnv::open_with(dir, opts);
    let _: fn(usize) -> EnvOptions = |pool_frames| EnvOptions { pool_frames, ..Default::default() };
    let _: fn(&StorageEnv) -> SmgrId = StorageEnv::disk_id;
    let _: fn(&Arc<StorageEnv>, SmgrId) -> pglo_heap::Result<Heap> = Heap::create_anonymous;
    let _: fn(&Arc<StorageEnv>, SmgrId) -> pglo_btree::Result<BTree> = BTree::create_anonymous;
    // main.rs: BENCHMARK.json and the run's JSON lines.
    let _: fn(&str) -> Result<Value, ParseError> = json::parse;
}
