//! The phase library: each phase is one fixed-op-count slice of one kind
//! of traffic, written once against [`Conn`] so the same op stream runs
//! through any rung. A workload is a plan over these.

use crate::backend::{Backend, Conn, Tcp, R};
use crate::model::{fill, Obj, FRAME};
use crate::pace::CpuTimer;
use crate::stats::SplitMix64;
use std::collections::VecDeque;

/// Sequential I/O unit: 16 frames.
pub const SEQ_IO: usize = 64 * 1024;
/// I/O unit of the loads. lobd writes the catalog twice, each with a
/// directory fsync, after every write that grows an object: loading
/// 128 MiB 64 KiB at a time waited for the host's disk for 6 to 40 s, and
/// 1 MiB at a time it waits a sixteenth of that.
pub const LOAD_IO: usize = 1024 * 1024;
/// Frames per sequential I/O.
const SEQ_FRAMES: usize = SEQ_IO / FRAME;
/// Wire window of the pipelined phases: the window `server_bench` used,
/// below the server's per-session cap of 32 so the client's window is
/// the one in force.
pub const PIPE_WINDOW: usize = 8;
/// Size of every album object: one sequential I/O.
pub const ALBUM_OBJ: usize = SEQ_IO;
/// An album create-transaction in four unlinks an old object.
const UNLINK_EVERY: u64 = 4;

/// Latency classes a phase can feed.
pub const READ: usize = 0;
pub const WRITE: usize = 1;
pub const COMMIT: usize = 2;
pub const CLASS_NAMES: [&str; 3] = ["read", "write", "commit"];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// 64 KiB `read` at the seek pointer, one at a time.
    SeqRead { ops: usize },
    /// The bytes `SeqRead` reads in the same round, as `read_at` at window 8.
    PipeRead { ops: usize },
    /// 4 KiB `read_at`; `local` picks the paper's 80/20 locality (80 %
    /// next frame, 20 % uniform jump) instead of uniform frames.
    RandRead { ops: usize, local: bool },
    /// Transactions of `writes` × 4 KiB `write_at` + `commit`, on the
    /// client's object or on its scratch object.
    Update { txns: usize, writes: usize, local: bool, scratch: bool },
    /// One transaction of 64 KiB `write`s at the end of the object.
    Append { ops: usize },
    /// Album: `begin`, `lo_create`, write 64 KiB, `close`, `commit`;
    /// every fourth also unlinks the oldest live object.
    CreateTxn { txns: usize },
    /// Album: open an earlier object chosen 80/20 by recency, read it
    /// whole, `close`, `commit`.
    ReadTxn { txns: usize },
    /// Album: eight objects fetched in one transaction at window 8.
    PipeFetch { txns: usize },
    /// Album: open an earlier object chosen 80/20 by recency, replace its
    /// 64 KiB, `close`, `commit`. The album's write that changes no
    /// catalog entry, and so never waits for the disk.
    EditTxn { txns: usize },
}

impl Phase {
    pub fn name(&self) -> &'static str {
        match self {
            Phase::SeqRead { .. } => "seq_read",
            Phase::PipeRead { .. } => "pipe_read",
            Phase::RandRead { .. } => "rand_read",
            Phase::Update { .. } => "update",
            Phase::Append { .. } => "append",
            Phase::CreateTxn { .. } => "create_txn",
            Phase::ReadTxn { .. } => "read_txn",
            Phase::PipeFetch { .. } => "pipe_fetch",
            Phase::EditTxn { .. } => "edit_txn",
        }
    }

    /// Stream number of the phase's generator.
    fn stream(&self) -> usize {
        match self {
            Phase::SeqRead { .. } => 0,
            Phase::PipeRead { .. } => 1,
            Phase::RandRead { .. } => 2,
            Phase::Update { .. } => 3,
            Phase::CreateTxn { .. } => 4,
            Phase::ReadTxn { .. } => 5,
            Phase::PipeFetch { .. } => 6,
            Phase::Append { .. } => SETUP_STREAM,
            Phase::EditTxn { .. } => 8,
        }
    }

    /// Pipelined phases exist on the wire only; the ladder skips them.
    pub fn pipelined(&self) -> bool {
        matches!(self, Phase::PipeRead { .. } | Phase::PipeFetch { .. })
    }

    /// The latency class that is this phase's unit of work.
    pub fn unit_class(&self) -> usize {
        match self {
            Phase::Update { .. }
            | Phase::Append { .. }
            | Phase::CreateTxn { .. }
            | Phase::EditTxn { .. } => WRITE,
            _ => READ,
        }
    }

    /// The same phase at `1/div` of its op count (at least one op).
    pub fn scaled(self, div: usize) -> Self {
        let s = |n: usize| (n / div).max(1);
        match self {
            Phase::SeqRead { ops } => Phase::SeqRead { ops: s(ops) },
            Phase::PipeRead { ops } => Phase::PipeRead { ops: s(ops) },
            Phase::RandRead { ops, local } => Phase::RandRead { ops: s(ops), local },
            Phase::Update { txns, writes, local, scratch } => {
                Phase::Update { txns: s(txns), writes, local, scratch }
            }
            Phase::Append { ops } => Phase::Append { ops: s(ops) },
            Phase::CreateTxn { txns } => Phase::CreateTxn { txns: s(txns) },
            Phase::ReadTxn { txns } => Phase::ReadTxn { txns: s(txns) },
            Phase::PipeFetch { txns } => Phase::PipeFetch { txns: s(txns) },
            Phase::EditTxn { txns } => Phase::EditTxn { txns: s(txns) },
        }
    }
}

/// What one client's slice of one phase produced.
#[derive(Default, Clone)]
pub struct Out {
    /// User bytes read or written.
    pub bytes: u64,
    /// Transactions committed.
    pub txns: u64,
    /// Latency samples in nanoseconds of the CPU clock (see `pace`), by class.
    pub lat: [Vec<u32>; 3],
}

/// One client's side of the model and its generators. Clients never
/// share objects, so all contention is the server's.
pub struct State {
    seed: u64,
    client: usize,
    /// Live objects, oldest first: the client's object, then its scratch
    /// object if the plan has one; in `album_txn`, the album.
    pub objs: Vec<Obj>,
    rngs: [Option<SplitMix64>; STREAMS],
    /// Next sequential I/O of `SeqRead` / `PipeRead` (they stay equal).
    seq_next: [usize; 2],
    /// Current frame of the 80/20 walks (reads, writes).
    local_at: [usize; 2],
    creates: u64,
    buf: Vec<u8>,
}

/// Generator stream of appended data: the preload's and `Append`'s.
const SETUP_STREAM: usize = 7;
/// Generator streams a client has: one per phase kind.
const STREAMS: usize = 9;

impl State {
    pub fn new(seed: u64, client: usize) -> Self {
        Self {
            seed,
            client,
            objs: Vec::new(),
            rngs: Default::default(),
            seq_next: [0; 2],
            local_at: [0; 2],
            creates: 0,
            buf: Vec::new(),
        }
    }

    fn rng(&mut self, stream: usize) -> &mut SplitMix64 {
        let (seed, client) = (self.seed, self.client as u64);
        self.rngs[stream].get_or_insert_with(|| SplitMix64::new(seed, client, stream as u64))
    }

    /// Generator positions, so the ladder can replay one stream per rung.
    pub fn save_streams(&self) -> ([Option<SplitMix64>; STREAMS], [usize; 2], [usize; 2]) {
        (self.rngs.clone(), self.seq_next, self.local_at)
    }

    pub fn restore_streams(
        &mut self,
        saved: &([Option<SplitMix64>; STREAMS], [usize; 2], [usize; 2]),
    ) {
        (self.rngs, self.seq_next, self.local_at) = saved.clone();
    }

    pub fn live_bytes(&self) -> u64 {
        self.objs.iter().map(Obj::bytes).sum()
    }

    /// Next frame of an access pattern over `frames` frames.
    fn pick(&mut self, stream: usize, walk: usize, frames: usize, local: bool) -> usize {
        let rng = self.rng(stream);
        let jump = !local || !rng.chance(80);
        let frame = if jump {
            rng.below(frames as u64) as usize
        } else {
            (self.local_at[walk] + 1) % frames
        };
        self.local_at[walk] = frame;
        frame
    }
}

/// Create one object and append `bytes` (whole frames) to it in a single
/// transaction, `LOAD_IO` at a time: the untimed preload.
pub fn create_loaded<B: Backend>(c: &mut Conn<B>, st: &mut State, bytes: usize) -> R<()> {
    c.begin()?;
    let id = c.create()?;
    st.objs.push(Obj::new(id));
    let index = st.objs.len() - 1;
    append(c, st, index, bytes / LOAD_IO, LOAD_IO, None, |_| {})?;
    if !bytes.is_multiple_of(LOAD_IO) {
        append(c, st, index, 1, bytes % LOAD_IO, None, |_| {})?;
    }
    c.commit()
}

/// Append `ios` I/Os of `io` bytes to object `index` inside the open
/// transaction, through one handle, calling `each(i)` before I/O `i`
/// (the timed load marks its slices there).
pub fn append<B: Backend>(
    c: &mut Conn<B>,
    st: &mut State,
    index: usize,
    ios: usize,
    io: usize,
    mut out: Option<&mut Out>,
    mut each: impl FnMut(usize),
) -> R<()> {
    let mut buf = std::mem::take(&mut st.buf);
    buf.resize(io, 0);
    let mut lo = c.open(st.objs[index].id, true)?;
    lo.seek(st.objs[index].bytes())?;
    for i in 0..ios {
        each(i);
        fill(&mut buf, st.rng(SETUP_STREAM));
        let t = CpuTimer::start();
        lo.write(&buf)?;
        if let Some(out) = out.as_deref_mut() {
            out.lat[WRITE].push(t.ns());
            out.bytes += io as u64;
        }
        let end = st.objs[index].frames.len();
        st.objs[index].wrote(end, &buf);
    }
    lo.close()?;
    st.buf = buf;
    Ok(())
}

/// Run one slice of `phase` for this client.
pub fn run<B: Backend>(phase: Phase, c: &mut Conn<B>, st: &mut State, out: &mut Out) -> R<()> {
    match phase {
        Phase::SeqRead { ops } => seq_read(c, st, ops, out),
        Phase::RandRead { ops, local } => rand_read(c, st, ops, local, out),
        Phase::Update { .. } => update(c, st, phase, out),
        Phase::Append { ops } => {
            c.tr.unit_begin("append");
            c.begin()?;
            append(c, st, 0, ops, SEQ_IO, Some(out), |_| {})?;
            c.commit()?;
            c.tr.unit_end();
            Ok(())
        }
        Phase::CreateTxn { txns } => create_txn(c, st, txns, out),
        Phase::ReadTxn { txns } => read_txn(c, st, txns, out),
        Phase::EditTxn { txns } => edit_txn(c, st, txns, out),
        Phase::PipeRead { .. } | Phase::PipeFetch { .. } => {
            Err(format!("{} runs on the tcp rung only", phase.name()))
        }
    }
}

/// Run one slice of any phase over the wire.
pub fn run_tcp(phase: Phase, c: &mut Conn<Tcp>, st: &mut State, out: &mut Out) -> R<()> {
    match phase {
        Phase::PipeRead { ops } => pipe_read(c, st, ops, out),
        Phase::PipeFetch { txns } => pipe_fetch(c, st, txns, out),
        _ => run(phase, c, st, out),
    }
}

fn seq_read<B: Backend>(c: &mut Conn<B>, st: &mut State, ops: usize, out: &mut Out) -> R<()> {
    let obj = &st.objs[0];
    let ios = obj.frames.len() / SEQ_FRAMES;
    let mut at = st.seq_next[0] % ios;
    c.tr.unit_begin("seq_read");
    c.begin()?;
    let mut lo = c.open(obj.id, false)?;
    if at != 0 {
        lo.seek((at * SEQ_IO) as u64)?;
    }
    for _ in 0..ops {
        let t = CpuTimer::start();
        let data = lo.read(SEQ_IO as u32)?;
        out.lat[READ].push(t.ns());
        if !obj.matches(at * SEQ_FRAMES, SEQ_IO, &data) {
            lo.mismatch();
        }
        out.bytes += data.len() as u64;
        at += 1;
        if at == ios {
            at = 0;
            lo.seek(0)?;
        }
    }
    lo.close()?;
    c.commit()?;
    c.tr.unit_end();
    st.seq_next[0] = at;
    Ok(())
}

fn pipe_read(c: &mut Conn<Tcp>, st: &mut State, ops: usize, out: &mut Out) -> R<()> {
    let obj = &st.objs[0];
    let ios = obj.frames.len() / SEQ_FRAMES;
    let mut at = st.seq_next[1] % ios;
    let Conn { b, tr, tally } = c;
    tr.unit_begin("pipe_read");
    let res = (|| -> Result<(), pglo_server::ClientError> {
        b.0.begin()?;
        let mut pipe = b.0.pipeline_with_window(PIPE_WINDOW);
        let ticket = pipe.lo_open(obj.id, false, 0)?;
        let fd = pipe.redeem(ticket)?;
        let mut inflight = VecDeque::with_capacity(PIPE_WINDOW);
        for i in 0..ops + PIPE_WINDOW {
            if inflight.len() == PIPE_WINDOW || i >= ops {
                let Some((ticket, first, span)) = inflight.pop_front() else { break };
                let data: Vec<u8> = pipe.redeem(ticket)?;
                tr.end(span);
                if !obj.matches(first, SEQ_IO, &data) {
                    tally.failed += 1;
                }
                out.bytes += data.len() as u64;
            }
            if i < ops {
                let span = tr.start("lo_read_at");
                let ticket = pipe.lo_read_at(fd, (at * SEQ_IO) as u64, SEQ_IO as u32)?;
                inflight.push_back((ticket, at * SEQ_FRAMES, span));
                at = (at + 1) % ios;
            }
        }
        let ticket = pipe.lo_close(fd)?;
        pipe.redeem(ticket)?;
        drop(pipe);
        b.0.commit()?;
        Ok(())
    })();
    tr.unit_end();
    tally.attempted += ops as u64 + 4;
    st.seq_next[1] = at;
    res.map_err(|e| {
        tally.failed += 1;
        e.to_string()
    })
}

fn rand_read<B: Backend>(
    c: &mut Conn<B>,
    st: &mut State,
    ops: usize,
    local: bool,
    out: &mut Out,
) -> R<()> {
    let stream = Phase::RandRead { ops, local }.stream();
    let frames = st.objs[0].frames.len();
    c.tr.unit_begin("rand_read");
    c.begin()?;
    let mut lo = c.open(st.objs[0].id, false)?;
    for _ in 0..ops {
        let frame = st.pick(stream, 0, frames, local);
        let t = CpuTimer::start();
        let data = lo.read_at((frame * FRAME) as u64, FRAME as u32)?;
        out.lat[READ].push(t.ns());
        if !st.objs[0].matches(frame, FRAME, &data) {
            lo.mismatch();
        }
        out.bytes += data.len() as u64;
    }
    lo.close()?;
    c.commit()?;
    c.tr.unit_end();
    Ok(())
}

fn update<B: Backend>(c: &mut Conn<B>, st: &mut State, phase: Phase, out: &mut Out) -> R<()> {
    let Phase::Update { txns, writes, local, scratch } = phase else {
        unreachable!("update runs Update phases")
    };
    let stream = phase.stream();
    let index = usize::from(scratch);
    let frames = st.objs[index].frames.len();
    let mut buf = [0u8; FRAME];
    for _ in 0..txns {
        c.tr.unit_begin("update_txn");
        c.begin()?;
        let mut lo = c.open(st.objs[index].id, true)?;
        for _ in 0..writes {
            let frame = st.pick(stream, 1, frames, local);
            fill(&mut buf, st.rng(stream));
            let t = CpuTimer::start();
            lo.write_at((frame * FRAME) as u64, &buf)?;
            out.lat[WRITE].push(t.ns());
            st.objs[index].wrote(frame, &buf);
        }
        lo.close()?;
        let t = CpuTimer::start();
        c.commit()?;
        out.lat[COMMIT].push(t.ns());
        c.tr.unit_end();
        out.bytes += (writes * FRAME) as u64;
        out.txns += 1;
    }
    Ok(())
}

fn create_txn<B: Backend>(c: &mut Conn<B>, st: &mut State, txns: usize, out: &mut Out) -> R<()> {
    let stream = Phase::CreateTxn { txns }.stream();
    let mut buf = std::mem::take(&mut st.buf);
    buf.resize(ALBUM_OBJ, 0);
    for _ in 0..txns {
        fill(&mut buf, st.rng(stream));
        c.tr.unit_begin("create_txn");
        let whole = CpuTimer::start();
        c.begin()?;
        let mut obj = Obj::new(c.create()?);
        let mut lo = c.open(obj.id, true)?;
        lo.write(&buf)?;
        lo.close()?;
        let t = CpuTimer::start();
        c.commit()?;
        out.lat[COMMIT].push(t.ns());
        out.lat[WRITE].push(whole.ns());
        c.tr.unit_end();
        obj.wrote(0, &buf);
        st.objs.push(obj);
        out.bytes += ALBUM_OBJ as u64;
        out.txns += 1;
        st.creates += 1;
        if st.creates.is_multiple_of(UNLINK_EVERY) {
            c.unlink(st.objs.remove(0).id)?;
        }
    }
    st.buf = buf;
    Ok(())
}

/// Index of an album object chosen 80/20 by recency: four reads in five
/// go to the newest fifth of the live objects.
fn pick_recent(st: &mut State, stream: usize) -> usize {
    let n = st.objs.len();
    let rng = st.rng(stream);
    if rng.chance(80) {
        n - 1 - rng.below((n / 5).max(1) as u64) as usize
    } else {
        rng.below(n as u64) as usize
    }
}

fn read_txn<B: Backend>(c: &mut Conn<B>, st: &mut State, txns: usize, out: &mut Out) -> R<()> {
    let stream = Phase::ReadTxn { txns }.stream();
    for _ in 0..txns {
        let i = pick_recent(st, stream);
        let obj = &st.objs[i];
        c.tr.unit_begin("read_txn");
        let whole = CpuTimer::start();
        c.begin()?;
        let mut lo = c.open(obj.id, false)?;
        let data = lo.read(ALBUM_OBJ as u32)?;
        if !obj.matches(0, ALBUM_OBJ, &data) {
            lo.mismatch();
        }
        lo.close()?;
        c.commit()?;
        out.lat[READ].push(whole.ns());
        c.tr.unit_end();
        out.bytes += data.len() as u64;
        out.txns += 1;
    }
    Ok(())
}

fn edit_txn<B: Backend>(c: &mut Conn<B>, st: &mut State, txns: usize, out: &mut Out) -> R<()> {
    let stream = Phase::EditTxn { txns }.stream();
    let mut buf = std::mem::take(&mut st.buf);
    buf.resize(ALBUM_OBJ, 0);
    for _ in 0..txns {
        let i = pick_recent(st, stream);
        fill(&mut buf, st.rng(stream));
        c.tr.unit_begin("edit_txn");
        let whole = CpuTimer::start();
        c.begin()?;
        let mut lo = c.open(st.objs[i].id, true)?;
        lo.write(&buf)?;
        lo.close()?;
        let t = CpuTimer::start();
        c.commit()?;
        out.lat[COMMIT].push(t.ns());
        out.lat[WRITE].push(whole.ns());
        c.tr.unit_end();
        st.objs[i].wrote(0, &buf);
        out.bytes += ALBUM_OBJ as u64;
        out.txns += 1;
    }
    st.buf = buf;
    Ok(())
}

fn pipe_fetch(c: &mut Conn<Tcp>, st: &mut State, txns: usize, out: &mut Out) -> R<()> {
    let stream = Phase::PipeFetch { txns }.stream();
    let Conn { b, tr, tally } = c;
    for _ in 0..txns {
        let picks: Vec<usize> = (0..PIPE_WINDOW).map(|_| pick_recent(st, stream)).collect();
        tr.unit_begin("pipe_fetch");
        let res = (|| -> Result<(), pglo_server::ClientError> {
            b.0.begin()?;
            let mut pipe = b.0.pipeline_with_window(PIPE_WINDOW);
            let mut tickets = Vec::with_capacity(PIPE_WINDOW);
            for &i in &picks {
                tickets.push(pipe.lo_open(st.objs[i].id, false, 0)?);
            }
            let mut fds = Vec::with_capacity(PIPE_WINDOW);
            for t in tickets {
                fds.push(pipe.redeem(t)?);
            }
            let mut reads = Vec::with_capacity(PIPE_WINDOW);
            for &fd in &fds {
                reads.push((tr.start("lo_read_at"), pipe.lo_read_at(fd, 0, ALBUM_OBJ as u32)?));
            }
            for ((span, t), &i) in reads.into_iter().zip(&picks) {
                let data = pipe.redeem(t)?;
                tr.end(span);
                if !st.objs[i].matches(0, ALBUM_OBJ, &data) {
                    tally.failed += 1;
                }
                out.bytes += data.len() as u64;
            }
            let mut closes = Vec::with_capacity(PIPE_WINDOW);
            for &fd in &fds {
                closes.push(pipe.lo_close(fd)?);
            }
            for t in closes {
                pipe.redeem(t)?;
            }
            drop(pipe);
            b.0.commit()?;
            Ok(())
        })();
        tr.unit_end();
        tally.attempted += 3 * PIPE_WINDOW as u64 + 2;
        if let Err(e) = res {
            tally.failed += 1;
            return Err(e.to_string());
        }
        out.txns += 1;
    }
    Ok(())
}
