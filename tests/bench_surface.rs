//! The workspace surface the benchmark calls, checked at compile time.
//!
//! This file mirrors `crates/bench/src/bin/lobench/src`. lobench is a
//! package of its own, outside the workspace, so no workspace build or
//! test compiles it, and a change to an item it calls would only show
//! when the benchmark fails to build. Each item it calls is bound here to
//! a typed `let` or a fn pointer, grouped by the lobench file that calls
//! it, so such a change fails this build instead. The list was made by
//! reading every file there. Keep it in step with lobench: add what
//! lobench starts to call; change an entry only together with lobench
//! itself.

#![allow(unused_imports, reason = "each import checks that lobench's import still resolves")]
#![allow(clippy::type_complexity, reason = "each binding spells out a signature lobench relies on")]

use pglo_btree::{keys::u64_key, BTree};
use pglo_buffer::{BufferPool, PageKey, PinnedPage, PoolStats};
use pglo_core::{LoCursor, LoId, LoSpec, LoStore, OpenMode, UserId, CHUNK_SIZE};
use pglo_heap::json::{self, ParseError, Value};
use pglo_heap::{Catalog, EnvOptions, Heap, StorageEnv};
use pglo_pages::Tid;
use pglo_server::loopback::{Loopback, PipeEnd};
use pglo_server::proto::{self, DecodeError, Opcode, Reader, SEEK_SET};
use pglo_server::{
    spawn, Client, ClientError, LoHandle, LobdService, Pipeline, ServerConfig, ServerHandle,
    Session, Ticket, WireSpec,
};
use pglo_smgr::SmgrId;
use pglo_txn::{CommitTs, Txn, Visibility};
use pglo_wal::{Wal, WalOptions};
use std::io::SeekFrom;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;

type ClientResult<T> = Result<T, ClientError>;
type CoreResult<T> = pglo_core::Result<T>;
type HeapResult<T> = pglo_heap::Result<T>;

#[test]
fn items_lobench_calls_keep_their_signatures() {
    // backend.rs, the `tcp` and `loopback` rungs: the typed client and its
    // RAII large-object handle.
    let _: fn(&mut Client<TcpStream>) -> ClientResult<()> = Client::begin;
    let _: fn(&mut Client<TcpStream>) -> ClientResult<u64> = Client::commit;
    let _: fn(&mut Client<TcpStream>, &WireSpec) -> ClientResult<u64> = Client::lo_create;
    let _: fn(&mut Client<TcpStream>, u64) -> ClientResult<()> = Client::lo_unlink;
    let _: for<'c> fn(
        &'c mut Client<PipeEnd>,
        u64,
        bool,
        u32,
    ) -> ClientResult<LoHandle<'c, PipeEnd>> = Client::lo;
    let _ = |h: &mut LoHandle<'_, TcpStream>| -> ClientResult<u64> { h.seek(SEEK_SET, 0) };
    let _ = |h: &mut LoHandle<'_, TcpStream>| -> ClientResult<Vec<u8>> { h.read(1) };
    let _ = |h: &mut LoHandle<'_, TcpStream>| -> ClientResult<Vec<u8>> { h.read_at(0, 1) };
    let _ = |h: &mut LoHandle<'_, TcpStream>| -> ClientResult<()> { h.write(&[]) };
    let _ = |h: &mut LoHandle<'_, TcpStream>| -> ClientResult<()> { h.write_at(0, &[]) };
    let _ = |h: LoHandle<'_, TcpStream>| -> ClientResult<()> { h.close() };
    let _: fn() -> WireSpec = WireSpec::fchunk;
    // backend.rs, the `service` rung: frames handed to the service.
    let _: fn(&LobdService) -> Session = LobdService::session_opened;
    let _: fn(&LobdService, &mut Session) = LobdService::session_closed;
    let _: fn(&LobdService, &mut Session, u8, &[u8]) -> (u8, Vec<u8>) = LobdService::handle_frame;
    let _: fn(Opcode) -> &'static str = Opcode::name;
    let _ = [Opcode::Begin, Opcode::Commit, Opcode::LoCreate, Opcode::LoUnlink, Opcode::LoOpen];
    let _ = [Opcode::LoSeek, Opcode::LoRead, Opcode::LoReadAt, Opcode::LoWrite, Opcode::LoWriteAt];
    let _ = (Opcode::LoClose as u8, SEEK_SET);
    let _: fn(&WireSpec, &mut Vec<u8>) = WireSpec::encode;
    let _: fn(&mut Vec<u8>, u32) = proto::put_u32;
    let _: fn(&mut Vec<u8>, u64) = proto::put_u64;
    let _: fn(&mut Vec<u8>, i64) = proto::put_i64;
    let _: fn(&mut Vec<u8>, &[u8]) = proto::put_bytes;
    let _ = |b: &[u8]| -> Result<(u32, u64), DecodeError> {
        let mut r = Reader::new(b);
        Ok((r.u32()?, r.u64()?))
    };
    // backend.rs, the `core` rung: a cursor over the service's store.
    let _: fn(&LobdService) -> &Arc<StorageEnv> = LobdService::env;
    let _: fn(&LobdService) -> &Arc<LoStore> = LobdService::store;
    let _: fn(&StorageEnv) -> Txn = StorageEnv::begin;
    let _: fn(Txn) -> std::io::Result<CommitTs> = Txn::try_commit;
    let _: fn(&LoStore, &Txn, &LoSpec) -> CoreResult<LoId> = LoStore::create;
    let _: fn(&LoStore, LoId) -> CoreResult<()> = LoStore::unlink;
    let _: fn() -> LoSpec = LoSpec::fchunk;
    let _ = |s: &LoStore, t: &Txn| -> CoreResult<()> {
        s.open_as(t, LoId(1), OpenMode::ReadWrite, UserId::DBA)?.close()
    };
    let _: fn(LoId, OpenMode, UserId) -> LoCursor = LoCursor::new;
    let _ = (OpenMode::ReadOnly, LoId(1).0);
    let _: fn(&mut LoCursor, &LoStore, Option<&Txn>, SeekFrom) -> CoreResult<u64> = LoCursor::seek;
    let _: fn(&mut LoCursor, &LoStore, Option<&Txn>, &mut [u8]) -> CoreResult<usize> =
        LoCursor::read;
    let _: fn(&LoCursor, &LoStore, Option<&Txn>, u64, &mut [u8]) -> CoreResult<usize> =
        LoCursor::read_at;
    let _: fn(&mut LoCursor, &LoStore, Option<&Txn>, &[u8]) -> CoreResult<()> = LoCursor::write;
    let _: fn(&LoCursor, &LoStore, Option<&Txn>, u64, &[u8]) -> CoreResult<()> = LoCursor::write_at;
    // lobd.rs: the in-process server, its fingerprint and its shutdown.
    let _ = |dir: &Path| -> CoreResult<Arc<LobdService>> { LobdService::open(dir) };
    let _: fn(Arc<LobdService>, ServerConfig) -> std::io::Result<ServerHandle> = spawn;
    let _: fn() -> ServerConfig = ServerConfig::default;
    let _: fn(&ServerHandle) -> SocketAddr = ServerHandle::local_addr;
    let _: fn(&ServerHandle) = ServerHandle::shutdown;
    let _: fn(ServerHandle) -> Arc<LobdService> = ServerHandle::join;
    let _ = |a: SocketAddr| -> ClientResult<Client<TcpStream>> { Client::connect(a) };
    let _: fn(&StorageEnv) -> &Arc<BufferPool> = StorageEnv::pool;
    let _: fn(&BufferPool) -> usize = BufferPool::capacity;
    let _: fn(&BufferPool) -> pglo_buffer::Result<()> = BufferPool::flush_all;
    let _: fn(&StorageEnv) -> &Arc<Wal> = StorageEnv::wal;
    let _: fn(&Wal) -> WalOptions = Wal::options;
    let _: fn(&WalOptions) -> bool = |o| o.durable_sync;
    let _: fn() -> bool = obs::active;
    let _: fn(&StorageEnv) = StorageEnv::stop_bgwriter;
    let _: fn(&StorageEnv) = StorageEnv::stop_checkpointer;
    let _: fn(&StorageEnv) -> HeapResult<()> = StorageEnv::checkpoint;
    // runner.rs: the counters, the ladder's connections, the
    // `heap.catalog.alloc_oid_ns` probe.
    let _: fn(&mut Client<TcpStream>) -> ClientResult<Vec<obs::MetricEntry>> = Client::metrics;
    let _: fn(&obs::MetricEntry) -> (&String, f64) = |e| (&e.name, e.value.as_f64());
    let _: fn(&BufferPool) -> PoolStats = BufferPool::stats;
    let _: fn(&PoolStats) -> (u64, u64) = |s| (s.evictions, s.writebacks);
    let _ = |s: &Arc<LobdService>| -> ClientResult<Client<PipeEnd>> {
        pglo_server::loopback::connect(s).map(|lb: Loopback| lb.client)
    };
    let _: fn(&StorageEnv) -> &Catalog = StorageEnv::catalog;
    let _: fn(&Catalog) -> HeapResult<u64> = Catalog::alloc_oid;
    // phases.rs: pipelined reads.
    let _ = |c: &mut Client<TcpStream>| -> ClientResult<u32> {
        let mut pipe: Pipeline<'_, TcpStream> = c.pipeline_with_window(4);
        let fd = pipe.lo_open(1, false, 0)?;
        let fd = pipe.redeem(fd)?;
        let read: Ticket<Vec<u8>> = pipe.lo_read_at(fd, 0, 1)?;
        pipe.redeem(read)?;
        let close: Ticket<()> = pipe.lo_close(fd)?;
        pipe.redeem(close)?;
        Ok(fd)
    };
    // probes.rs: the heap, B-tree and pool probes on a store of their own.
    let _: fn(&Path, EnvOptions) -> HeapResult<Arc<StorageEnv>> =
        |dir, opts| StorageEnv::open_with(dir, opts);
    let _: fn(usize) -> EnvOptions = |pool_frames| EnvOptions { pool_frames, ..Default::default() };
    let _: fn(&StorageEnv) -> SmgrId = StorageEnv::disk_id;
    let _: fn(&Arc<StorageEnv>, SmgrId) -> HeapResult<Heap> = Heap::create_anonymous;
    let _: fn(&Arc<StorageEnv>, SmgrId) -> pglo_btree::Result<BTree> = BTree::create_anonymous;
    let _: fn(&Heap, &Txn, &[u8]) -> HeapResult<Tid> = Heap::insert;
    let _: fn(&Heap, Tid, &Visibility) -> HeapResult<Option<Vec<u8>>> = Heap::fetch;
    let _: fn(&Heap) -> SmgrId = Heap::smgr;
    let _: fn(&Heap) -> u64 = Heap::rel;
    let _: fn(&BTree, &[u8], Tid) -> pglo_btree::Result<()> = BTree::insert;
    let _: fn(&BTree, &[u8]) -> pglo_btree::Result<Vec<Tid>> = BTree::lookup;
    let _: fn(u64) -> [u8; 8] = u64_key;
    let _: fn(&Txn) -> Visibility = Visibility::for_txn;
    let _: fn(SmgrId, u64, u32) -> PageKey = PageKey::new;
    let _: fn(&BufferPool, PageKey) -> pglo_buffer::Result<PinnedPage<'_>> = BufferPool::pin;
    let _ = (Tid::new(0, 0).block, CHUNK_SIZE);
    // main.rs: BENCHMARK.json and the run's JSON lines.
    let _: fn(&str) -> Result<Value, ParseError> = json::parse;
    let _: for<'a> fn(&'a Value, &str) -> Option<&'a Value> = Value::get;
    let _: fn(&Value) -> Option<u64> = Value::as_u64;
    let _ = |v: &Value| matches!(v, Value::Arr(_) | Value::Num(_));
}
