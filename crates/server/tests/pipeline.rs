//! Pipelining: tagged frames, the `Pipeline` guard and its `Ticket`s,
//! window backpressure, out-of-order redemption.

use pglo_server::proto::{self, Opcode};
use pglo_server::{spawn, Client, LobdService, ServerConfig, ServerHandle, WireSpec};
use std::io::Write;

fn start() -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let handle = spawn(service, ServerConfig::default()).unwrap();
    (dir, handle)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

#[test]
fn tickets_redeem_out_of_order() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let mut pipe = c.pipeline();
    let a = pipe.ping(b"alpha").unwrap();
    let b = pipe.ping(b"beta").unwrap();
    let g = pipe.ping(b"gamma").unwrap();
    // Redemption order is the caller's business; the tag match is the
    // correlation, not arrival order.
    assert_eq!(pipe.redeem(g).unwrap(), b"gamma");
    assert_eq!(pipe.redeem(a).unwrap(), b"alpha");
    assert_eq!(pipe.redeem(b).unwrap(), b"beta");
    drop(pipe);
    assert_eq!(c.ping(b"after").unwrap(), b"after");
    stop(handle);
}

#[test]
fn small_window_absorbs_many_ops() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let mut pipe = c.pipeline_with_window(2);
    assert_eq!(pipe.window(), 2);
    // Far more enqueues than the window: the guard pumps replies to keep
    // the wire backlog bounded, and every ticket still redeems.
    let tickets: Vec<_> =
        (0..100u32).map(|k| (pipe.ping(format!("op-{k}").as_bytes()).unwrap(), k)).collect();
    for (ticket, k) in tickets {
        assert_eq!(pipe.redeem(ticket).unwrap(), format!("op-{k}").into_bytes());
    }
    stop(handle);
}

#[test]
fn pipelined_object_io_round_trips() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    {
        let mut pipe = c.pipeline_with_window(8);
        let fd = {
            let t = pipe.lo_open(id, true, 0).unwrap();
            pipe.redeem(t).unwrap()
        };
        // A window of positioned writes, then positioned reads of the
        // same spans, all in flight together.
        let writes: Vec<_> = (0..8u64)
            .map(|k| pipe.lo_write_at(fd, k * 8, format!("chunk-{k}!").as_bytes()).unwrap())
            .collect();
        for t in writes {
            pipe.redeem(t).unwrap();
        }
        let reads: Vec<_> =
            (0..8u64).map(|k| (pipe.lo_read_at(fd, k * 8, 8).unwrap(), k)).collect();
        for (t, k) in reads {
            assert_eq!(pipe.redeem(t).unwrap(), format!("chunk-{k}!").into_bytes());
        }
        let t = pipe.lo_close(fd).unwrap();
        pipe.redeem(t).unwrap();
    }
    c.commit().unwrap();
    stop(handle);
}

/// Pipelining is batching on the server: the frames one read delivers run
/// back to back and their replies leave together. 64 reads through a
/// window of 8 come back in order and byte-exact, and 64 sent in one
/// write take the worker fewer rounds (a round ends in one `write`) than
/// there are frames.
#[test]
fn pipelined_reads_arrive_in_order_and_in_batches() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let data: Vec<u8> = (0..64 * 512).map(|i| (i / 512 + i % 7) as u8).collect();
    c.begin().unwrap();
    let id = c.lo_create(&WireSpec::fchunk()).unwrap();
    let mut lo = c.lo(id, true, 0).unwrap();
    lo.write_all(&data).unwrap();
    let fd = lo.fd();
    std::mem::forget(lo);

    let mut pipe = c.pipeline_with_window(8);
    let reads: Vec<_> = (0..64u64).map(|k| pipe.lo_read_at(fd, k * 512, 512).unwrap()).collect();
    for (k, t) in reads.into_iter().enumerate() {
        assert_eq!(pipe.redeem(t).unwrap(), data[k * 512..][..512], "read {k}");
    }
    drop(pipe);

    // The same 64 reads in one write, on the raw socket under the client.
    let batch = |entries: &[obs::MetricEntry], field: &str| {
        let name = format!("server.worker.batch.{field}");
        entries.iter().find(|e| e.name == name).map_or(0, |e| e.value.as_u64())
    };
    let before = c.metrics().unwrap();
    let mut s = c.into_inner();
    let mut burst = Vec::new();
    for k in 0..64u32 {
        let mut p = Vec::new();
        proto::put_u32(&mut p, fd);
        proto::put_u64(&mut p, u64::from(k) * 512);
        proto::put_u32(&mut p, 512);
        proto::encode_frame_into(&mut burst, 1000 + k, Opcode::LoReadAt as u8, &p);
    }
    s.write_all(&burst).unwrap();
    let mut rbuf = Vec::new();
    for k in 0..64usize {
        let (tag, status, bytes) = proto::read_frame(&mut s, &mut rbuf).unwrap();
        assert_eq!((tag, status), (1000 + k as u32, 0));
        assert_eq!(bytes, data[k * 512..][..512], "burst read {k}");
    }
    let after = Client::connect(handle.local_addr()).unwrap().metrics().unwrap();
    let rounds = batch(&after, "count") - batch(&before, "count");
    let frames = batch(&after, "sum_ns") - batch(&before, "sum_ns");
    assert!(frames >= 64 && rounds < frames, "{frames} frames took {rounds} rounds");
    stop(handle);
}

#[test]
fn error_replies_attach_to_their_ticket() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let mut pipe = c.pipeline();
    // fd 999 was never opened: its op must fail; its neighbours must not.
    let good_before = pipe.ping(b"before").unwrap();
    let bad = pipe.lo_read(999, 16).unwrap();
    let good_after = pipe.ping(b"after").unwrap();
    assert_eq!(pipe.redeem(good_before).unwrap(), b"before");
    assert!(pipe.redeem(bad).is_err(), "bogus fd read must fail");
    assert_eq!(pipe.redeem(good_after).unwrap(), b"after");
    stop(handle);
}

#[test]
fn dropping_a_pipeline_leaves_the_session_clean() {
    let (_dir, handle) = start();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    {
        let mut pipe = c.pipeline_with_window(4);
        for k in 0..10u32 {
            let _ = pipe.ping(format!("abandoned-{k}").as_bytes()).unwrap();
        }
        // Drop with every ticket unredeemed: the guard drains the wire.
    }
    // The session is frame-aligned again.
    assert_eq!(c.ping(b"clean").unwrap(), b"clean");
    c.begin().unwrap();
    c.commit().unwrap();
    stop(handle);
}

#[test]
fn pipeline_works_over_loopback() {
    let dir = tempfile::tempdir().unwrap();
    let service = LobdService::open(dir.path()).unwrap();
    let mut lb = pglo_server::loopback::connect(&service).unwrap();
    let mut pipe = lb.client.pipeline_with_window(4);
    let tickets: Vec<_> =
        (0..12u32).map(|k| (pipe.ping(format!("lb-{k}").as_bytes()).unwrap(), k)).collect();
    for (t, k) in tickets.into_iter().rev() {
        assert_eq!(pipe.redeem(t).unwrap(), format!("lb-{k}").into_bytes());
    }
    drop(pipe);
    drop(lb.client);
    lb.server.join().unwrap();
}
