//! One run of one workload: set up, drive the plan round by round from
//! a closed-loop client thread, shut lobd down, reopen it and read
//! everything back. The runner only records; `report` reduces.
//!
//! Why rounds: probes on the 2-core host this was written on showed
//! per-slice rates wandering by ±30 % and decaying within a run. Every
//! round runs one fixed slice of every phase of the workload, so that
//! drift hits all phases alike, and every reported rate is a mid-mean
//! over rounds. The first round warms up and is discarded. Every slice
//! runs between two measurements of the host's pace (see `pace`).

use crate::backend::{Backend, Conn, Core, Loopback, Service, Tally, Tcp, Wire, R};
use crate::lobd::{rss_peak_mib, Fingerprint, Lobd};
use crate::model::FRAME;
use crate::pace::{cpu_s, host, Pace, Sample};
use crate::phases::{self, Out, Phase, State, LOAD_IO, SEQ_IO};
use crate::trace::Tracer;
use crate::workloads::{Plan, SIZED_FOR_SECONDS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// lobd's callers each wait for a reply, so the loop is closed. One
/// connection: the process runs on one CPU (see `pace`), and a second
/// client there only queues behind the first. With two clients on two
/// CPUs the same binary's rates spread 35-40 % between runs, which no
/// bound the benchmark may set can hold. What one client cannot show is
/// contention inside lobd; the code below still takes any `CLIENTS`.
pub const CLIENTS: usize = 1;
/// Rounds a run has at least: one to warm up and two to measure.
const MIN_ROUNDS: usize = 3;
/// In a traced run, the share of the time the plan's rounds get; the
/// ladder gets the rest.
const TRACED_PLAN_SHARE: f64 = 0.6;

/// A run that has taken this many times `--seconds` stops after the
/// round it is in.
const OVERRUN: f64 = 1.5;
/// `alloc_oid` calls timed for `heap.catalog.alloc_oid_ns`.
const ALLOC_OID_PROBES: usize = 21;

/// The rungs, outermost first.
pub const RUNGS: [&str; 4] = ["tcp", "loopback", "service", "core"];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1 for a real run; `--smoke` divides every size by this.
    pub scale: usize,
    /// Directory (inside the checkout) the run keeps its data under.
    pub root: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

/// One client's slice of one phase.
pub struct Rec {
    /// "load", "rounds" or "ladder".
    pub stage: &'static str,
    pub round: usize,
    pub phase: &'static str,
    pub rung: usize,
    pub traced: bool,
    /// Wall seconds the slice took, and the CPU seconds the process used
    /// in them: the time the metrics count (see `pace`).
    pub wall_s: f64,
    pub cpu_s: f64,
    /// How many times slower than the reference host the host ran around
    /// the slice, where that was measured: not in the load and the
    /// ladder, which feed no end-to-end metric.
    pub host: Option<f64>,
    pub attempted: u64,
    pub out: Out,
}

/// Counter movement over one interval, from `Client::metrics()`.
pub struct Delta {
    /// `Some((stage, phase, rung, traced))` for one slice, `None` for the
    /// whole timed section before the ladder.
    pub slice: Option<(&'static str, &'static str, usize, bool)>,
    pub counters: HashMap<String, f64>,
}

pub struct RunData {
    pub fingerprint: Fingerprint,
    /// Seconds of each set-up, scaled by the host's pace; and as measured.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    pub recs: Vec<Rec>,
    pub deltas: Vec<Delta>,
    pub tally: Tally,
    pub rss_peak_mib: f64,
    pub stored_bytes: u64,
    pub live_bytes: u64,
    pub objects: usize,
    pub catalog_json_bytes: u64,
    pub timed_s: f64,
    /// Mean client self time per unit span, by unit name (traced runs).
    pub unit_self_ns: HashMap<&'static str, f64>,
    pub spans: usize,
    /// Median of `Catalog::alloc_oid` on the run's own store at its end.
    pub alloc_oid_ns: f64,
    pub errors: Vec<String>,
}

type Counters = HashMap<String, f64>;

/// Every counter lobd reports over the wire, plus the two pool counters
/// its metrics frame leaves out.
fn snapshot(c: &mut Conn<Tcp>, service: &pglo_server::LobdService) -> R<Counters> {
    let entries = c.b.0.metrics().map_err(|e| format!("metrics: {e}"))?;
    let mut counters: Counters = entries.into_iter().map(|e| (e.name, e.value.as_f64())).collect();
    let pool = service.env().pool().stats();
    counters.insert("pool.evictions".into(), pool.evictions as f64);
    counters.insert("pool.writebacks".into(), pool.writebacks as f64);
    Ok(counters)
}

fn diff(before: &Counters, after: &Counters) -> Counters {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}

/// What the client threads share.
struct Shared<'a> {
    plan: &'a Plan,
    opts: &'a Opts,
    sync: Barrier,
    go: AtomicBool,
    abort: AtomicBool,
    service: Arc<pglo_server::LobdService>,
    addr: std::net::SocketAddr,
}

struct ClientDone {
    tally: Tally,
    state: State,
    recs: Vec<Rec>,
    deltas: Vec<Delta>,
    error: Option<String>,
    /// The connection's tracer, then the ladder rungs'.
    tracers: Vec<Tracer>,
    alloc_oid_ns: f64,
}

/// A connection and its client's side of the model.
type ClientSide = (Conn<Tcp>, State);

fn set_up(plan: &Plan, opts: &Opts, dir: &Path) -> R<(Lobd, Vec<ClientSide>)> {
    let lobd = Lobd::start(dir)?;
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        clients.push((lobd.connect(i)?, State::new(opts.seed, i)));
    }
    std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .iter_mut()
            .map(|(c, st)| {
                s.spawn(move || -> R<()> {
                    if plan.album {
                        for _ in 0..plan.object_bytes / phases::ALBUM_OBJ {
                            phases::create_loaded(c, st, phases::ALBUM_OBJ)?;
                        }
                        Ok(())
                    } else {
                        // A timed load fills the object later, on the clock.
                        let preload =
                            if plan.timed_load_slices > 0 { 0 } else { plan.object_bytes };
                        phases::create_loaded(c, st, preload)?;
                        if plan.scratch_bytes > 0 {
                            phases::create_loaded(c, st, plan.scratch_bytes)?;
                        }
                        Ok(())
                    }
                })
            })
            .collect();
        joins
            .into_iter()
            .try_for_each(|j| j.join().map_err(|_| "set-up thread panicked".to_string())?)
    })?;
    Ok((lobd, clients))
}

/// `--setup-only`: set up once under `opts.root`, tear down, and return
/// the seconds the set-up took, scaled and as measured.
pub fn set_up_only(plan: &Plan, opts: &Opts) -> R<(f64, f64)> {
    let dir = opts.root.join("db");
    let _ = std::fs::remove_dir_all(&dir);
    let set = timed_set_up(plan, opts, &dir, &mut Pace::start()?)?;
    drop(set.clients);
    set.lobd.stop()?;
    let _ = std::fs::remove_dir_all(&opts.root);
    Ok((set.scaled_s, set.raw_s))
}

/// One set-up and the seconds it took: scaled by the host's pace, and
/// as measured.
struct SetUp {
    lobd: Lobd,
    clients: Vec<ClientSide>,
    scaled_s: f64,
    raw_s: f64,
}

fn timed_set_up(plan: &Plan, opts: &Opts, dir: &Path, pace: &mut Pace) -> R<SetUp> {
    let (set, raw_s, host) = pace.around(|| set_up(plan, opts, dir))?;
    let (lobd, clients) = set?;
    Ok(SetUp { lobd, clients, scaled_s: raw_s / host, raw_s })
}

pub fn run(plan: &Plan, opts: &Opts) -> R<RunData> {
    std::fs::create_dir_all(&opts.root)
        .map_err(|e| format!("create {}: {e}", opts.root.display()))?;
    let dir = opts.root.join("db");
    // `setup_s` is the median of several set-ups. All but the last run
    // in a process of their own: lobd keeps its 32 MiB pool after it is
    // stopped, and a set-up repeated in this process would add that to
    // `rss_peak_mib` every time.
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    for i in 1..if opts.scale == 1 { plan.setups } else { 1 } {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let out = std::process::Command::new(exe)
            .args(["--workload", plan.name, "--seed", &opts.seed.to_string(), "--setup-only"])
            .arg(opts.root.join(format!("setup{i}")))
            .output()
            .map_err(|e| format!("start set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let seconds: Vec<f64> = stdout.split_whitespace().filter_map(|s| s.parse().ok()).collect();
        match seconds[..] {
            [scaled, raw] if out.status.success() => {
                setup_s.push(scaled);
                setup_raw_s.push(raw);
            }
            _ => {
                return Err(format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut paces = (0..CLIENTS).map(|_| Pace::start()).collect::<R<Vec<_>>>()?;
    let SetUp { lobd, clients, scaled_s, raw_s } = timed_set_up(plan, opts, &dir, &mut paces[0])?;
    setup_s.push(scaled_s);
    setup_raw_s.push(raw_s);
    let fingerprint = lobd.fingerprint();

    let shared = Shared {
        plan,
        opts,
        sync: Barrier::new(CLIENTS),
        go: AtomicBool::new(true),
        abort: AtomicBool::new(false),
        service: Arc::clone(&lobd.service),
        addr: lobd.addr(),
    };
    let timed = Instant::now();
    let done: Vec<ClientDone> = std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .into_iter()
            .zip(paces)
            .enumerate()
            .map(|(i, ((conn, state), pace))| {
                let shared = &shared;
                s.spawn(move || client_main(shared, i, conn, state, pace))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect()
    });
    let timed_s = timed.elapsed().as_secs_f64();
    drop(shared);
    let rss = rss_peak_mib()?;
    let mut data = RunData {
        fingerprint,
        setup_s,
        setup_raw_s,
        recs: Vec::new(),
        deltas: Vec::new(),
        tally: Tally::default(),
        rss_peak_mib: rss,
        stored_bytes: 0,
        live_bytes: 0,
        objects: 0,
        catalog_json_bytes: 0,
        timed_s,
        unit_self_ns: HashMap::new(),
        spans: 0,
        alloc_oid_ns: 0.0,
        errors: Vec::new(),
    };
    let mut states = Vec::new();
    let mut trace_out = if opts.trace {
        let path = &opts.trace_file;
        Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        ))
    } else {
        None
    };
    for d in done {
        data.tally.add(d.tally);
        data.recs.extend(d.recs);
        data.deltas.extend(d.deltas);
        data.errors.extend(d.error);
        data.alloc_oid_ns = data.alloc_oid_ns.max(d.alloc_oid_ns);
        // Unit self time is the client's in the rounds: the first tracer.
        data.unit_self_ns.extend(d.tracers[0].unit_self_ns());
        for tr in &d.tracers {
            data.spans += tr.len();
            if let Some(w) = &mut trace_out {
                tr.write_jsonl(w).map_err(|e| format!("write trace: {e}"))?;
            }
        }
        states.push(d.state);
    }
    if let Some(mut w) = trace_out {
        std::io::Write::flush(&mut w).map_err(|e| format!("write trace: {e}"))?;
    }
    data.live_bytes = states.iter().map(State::live_bytes).sum();
    data.objects = states.iter().map(|s| s.objs.len()).sum();

    // Clean shutdown, then the store must give every live object back.
    data.stored_bytes = lobd.stop()?;
    data.catalog_json_bytes = std::fs::metadata(dir.join("catalog.json")).map_or(0, |m| m.len());
    if data.errors.is_empty() {
        match read_back(&dir, &states) {
            Ok(tally) => data.tally.add(tally),
            Err(e) => data.errors.push(format!("read-back after reopen: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(data)
}

/// Reopen the directory lobd was shut down on and check every frame of
/// every live object against the model.
fn read_back(dir: &Path, states: &[State]) -> R<Tally> {
    let lobd = Lobd::start(dir)?;
    let mut c = lobd.connect(0)?;
    for st in states {
        for obj in &st.objs {
            c.begin()?;
            let mut lo = c.open(obj.id, false)?;
            let mut frame = 0;
            // One read past the end proves the object is no longer than
            // the model says.
            loop {
                let data = lo.read(SEQ_IO as u32)?;
                if !obj.matches(frame, SEQ_IO, &data) {
                    lo.mismatch();
                }
                if data.is_empty() {
                    break;
                }
                frame += data.len().div_ceil(FRAME);
            }
            lo.close()?;
            c.commit()?;
        }
    }
    let tally = c.tally;
    drop(c);
    lobd.stop()?;
    Ok(tally)
}

struct Client<'a> {
    shared: &'a Shared<'a>,
    leader: bool,
    conn: Conn<Tcp>,
    state: State,
    recs: Vec<Rec>,
    deltas: Vec<Delta>,
    error: Option<String>,
    pace: Pace,
    /// The sample taken after the last slice: the next slice's "before".
    latest: Option<Sample>,
}

impl Client<'_> {
    fn fail(&mut self, e: String) {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.error.get_or_insert(e);
    }

    fn aborted(&self) -> bool {
        self.shared.abort.load(Ordering::SeqCst)
    }

    /// Leader only: a counter snapshot in a traced run.
    fn counters(&mut self) -> Option<Counters> {
        if !(self.leader && self.shared.opts.trace) || self.aborted() {
            return None;
        }
        match snapshot(&mut self.conn, &self.shared.service) {
            Ok(c) => Some(c),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// The host's pace now; a failure ends the run.
    fn sample(&mut self) -> Option<Sample> {
        self.pace.sample().map_err(|e| self.fail(e)).ok()
    }

    /// One slice on the wire, the clients in step: barrier, counters,
    /// barrier, pace, the slice, pace, barrier, counters.
    fn slice(&mut self, round: usize, phase: Phase, traced: bool) {
        self.shared.sync.wait();
        let before = self.counters();
        self.shared.sync.wait();
        self.conn.tr.on = traced;
        let (mut out, attempted) = (Out::default(), self.conn.tally.attempted);
        let pace_before = self.latest.take().or_else(|| self.sample());
        let (wall, cpu) = (Instant::now(), cpu_s());
        if !self.aborted() {
            if let Err(e) = phases::run_tcp(phase, &mut self.conn, &mut self.state, &mut out) {
                self.fail(format!("round {round}, {}: {e}", phase.name()));
            }
        }
        let (wall_s, cpu_s) = (wall.elapsed().as_secs_f64(), cpu_s() - cpu);
        self.latest = self.sample();
        self.conn.tr.on = false;
        self.recs.push(Rec {
            stage: "rounds",
            round,
            phase: phase.name(),
            rung: 0,
            traced,
            wall_s,
            cpu_s,
            host: pace_before.zip(self.latest).map(|(before, after)| host(before, after)),
            attempted: self.conn.tally.attempted - attempted,
            out,
        });
        self.shared.sync.wait();
        if let (Some(before), Some(after)) = (before, self.counters()) {
            self.deltas.push(Delta {
                slice: Some(("rounds", phase.name(), 0, traced)),
                counters: diff(&before, &after),
            });
        }
    }

    /// Leader decides, everyone learns, whether another round follows:
    /// `rounds` of them, unless `limit` passes first.
    fn go_on(&mut self, round: usize, rounds: usize, limit: Instant) -> bool {
        if self.leader {
            let go =
                round < rounds && (Instant::now() < limit || round < MIN_ROUNDS) && !self.aborted();
            self.shared.go.store(go, Ordering::SeqCst);
        }
        self.shared.sync.wait();
        let go = self.shared.go.load(Ordering::SeqCst);
        self.shared.sync.wait();
        go
    }

    /// `big_stream`'s timed load: one transaction and one open handle per
    /// object, timed in slices the clients start together.
    fn timed_load(&mut self) {
        let plan = self.shared.plan;
        // `--smoke` loads less than one `LOAD_IO` per slice.
        let io = (plan.object_bytes / plan.timed_load_slices).min(LOAD_IO);
        let ios = plan.object_bytes / plan.timed_load_slices / io;
        let sync = &self.shared.sync;
        let mut marks: Vec<(Instant, f64)> = Vec::new();
        let mut slices = 0;
        let attempted = self.conn.tally.attempted;
        let res = (|| {
            self.conn.begin()?;
            phases::append(
                &mut self.conn,
                &mut self.state,
                0,
                ios * plan.timed_load_slices,
                io,
                None,
                |i| {
                    if i % ios == 0 {
                        let now = (Instant::now(), cpu_s());
                        sync.wait();
                        slices += 1;
                        marks.extend([now, (Instant::now(), cpu_s())]);
                    }
                },
            )?;
            marks.push((Instant::now(), cpu_s()));
            self.conn.commit()
        })();
        // marks: [end of slice k-1, start of slice k]..., end of last.
        for (k, pair) in marks[1..].chunks_exact(2).enumerate() {
            self.recs.push(Rec {
                stage: "load",
                // No warm-up round here: the load happens once.
                round: k + 1,
                phase: "load",
                rung: 0,
                traced: false,
                wall_s: (pair[1].0 - pair[0].0).as_secs_f64(),
                cpu_s: pair[1].1 - pair[0].1,
                host: None,
                attempted: (self.conn.tally.attempted - attempted) / plan.timed_load_slices as u64,
                out: Out { bytes: (ios * io) as u64, ..Out::default() },
            });
        }
        if let Err(e) = res {
            self.fail(format!("load: {e}"));
            // The other client still waits at every slice's start.
            for _ in slices..plan.timed_load_slices {
                sync.wait();
            }
        }
    }

    /// One ladder slice on rung `B`, replaying the saved streams.
    fn rung_slice<B: Backend>(&mut self, c: &mut Conn<B>, rung: usize, round: usize, phase: Phase) {
        let before = self.counters();
        c.tr.on = true;
        let (mut out, attempted) = (Out::default(), c.tally.attempted);
        let (wall, cpu) = (Instant::now(), cpu_s());
        if !self.aborted() {
            if let Err(e) = phases::run(phase, c, &mut self.state, &mut out) {
                self.fail(format!("ladder/{}/{}: {e}", RUNGS[rung], phase.name()));
            }
        }
        let (wall_s, cpu_s) = (wall.elapsed().as_secs_f64(), cpu_s() - cpu);
        self.recs.push(Rec {
            stage: "ladder",
            round,
            phase: phase.name(),
            rung,
            traced: true,
            wall_s,
            cpu_s,
            host: None,
            attempted: c.tally.attempted - attempted,
            out,
        });
        if let (Some(before), Some(after)) = (before, self.counters()) {
            self.deltas.push(Delta {
                slice: Some(("ladder", phase.name(), rung, true)),
                counters: diff(&before, &after),
            });
        }
    }

    /// The entry-point ladder: this client alone replays the same seeded
    /// slice of every unpipelined phase at each rung, rung after rung
    /// within a round so drift hits the rungs alike.
    fn ladder(&mut self, phases: &[Phase], deadline: Instant) -> R<Vec<Tracer>> {
        let service = &self.shared.service;
        let tcp =
            pglo_server::Client::connect(self.shared.addr).map_err(|e| format!("connect: {e}"))?;
        let lb = pglo_server::loopback::connect(service).map_err(|e| format!("loopback: {e}"))?;
        let mut wire: Conn<Tcp> = Conn::new(Wire(tcp), 0);
        let mut loopback: Conn<Loopback> = Conn::new(Wire(lb.client), 0);
        let mut svc = Conn::new(Service::new(service), 0);
        let mut core = Conn::new(Core::new(service), 0);
        let mut round = 0;
        while (Instant::now() < deadline || round < MIN_ROUNDS) && !self.aborted() {
            for &phase in phases {
                let saved = self.state.save_streams();
                self.rung_slice(&mut wire, 0, round, phase);
                self.state.restore_streams(&saved);
                self.rung_slice(&mut loopback, 1, round, phase);
                self.state.restore_streams(&saved);
                self.rung_slice(&mut svc, 2, round, phase);
                self.state.restore_streams(&saved);
                self.rung_slice(&mut core, 3, round, phase);
            }
            round += 1;
        }
        for t in [wire.tally, loopback.tally, svc.tally, core.tally] {
            self.conn.tally.add(t);
        }
        let tracers = vec![wire.tr, loopback.tr, svc.tr, core.tr];
        drop((wire.b, loopback.b, svc.b, core.b));
        lb.server.join().map_err(|_| "loopback session thread panicked".to_string())?;
        Ok(tracers)
    }
}

fn client_main(
    shared: &Shared<'_>,
    index: usize,
    conn: Conn<Tcp>,
    state: State,
    pace: Pace,
) -> ClientDone {
    let (plan, opts) = (shared.plan, shared.opts);
    let mut me = Client {
        shared,
        leader: index == 0,
        conn,
        state,
        recs: Vec::new(),
        deltas: Vec::new(),
        error: None,
        pace,
        latest: None,
    };
    let begun = Instant::now();
    // A traced run gives the plan a share of the time and the ladder the
    // rest, and runs every slice twice, traced and untraced.
    let seconds = opts.seconds * if opts.trace { TRACED_PLAN_SHARE } else { 1.0 };
    let slices_per_phase = if opts.trace { 2.0 } else { 1.0 };
    let rounds = plan.rounds as f64 * seconds / SIZED_FOR_SECONDS / slices_per_phase;
    let rounds = (rounds.round() as usize).max(MIN_ROUNDS);
    let limit = begun + Duration::from_secs_f64(seconds * OVERRUN);

    let before = me.counters();
    if plan.timed_load_slices > 0 {
        me.timed_load();
    }
    let mut round = 0;
    loop {
        for &phase in &plan.phases {
            if opts.trace {
                // Untraced and traced slices side by side give the
                // tracing overhead; which goes first alternates.
                me.slice(round, phase, round % 2 == 1);
                me.slice(round, phase, round % 2 == 0);
            } else {
                me.slice(round, phase, false);
            }
        }
        round += 1;
        if !me.go_on(round, rounds, limit) {
            break;
        }
    }
    if let (Some(before), Some(after)) = (before, me.counters()) {
        me.deltas.push(Delta { slice: None, counters: diff(&before, &after) });
    }

    let mut tracers = Vec::new();
    let mut alloc_oid_ns = 0.0;
    if opts.trace {
        if me.leader {
            let phases: Vec<Phase> =
                plan.phases.iter().copied().filter(|p| !p.pipelined()).collect();
            match me.ladder(
                &phases,
                Instant::now() + Duration::from_secs_f64(opts.seconds * (1.0 - TRACED_PLAN_SHARE)),
            ) {
                Ok(t) => tracers = t,
                Err(e) => me.fail(e),
            }
            // The catalog probe runs here because only this store has the
            // catalog the workload grew.
            let catalog = shared.service.env().catalog();
            let times: Result<Vec<f64>, _> = (0..ALLOC_OID_PROBES)
                .map(|_| {
                    let t = Instant::now();
                    catalog.alloc_oid().map(|_| t.elapsed().as_nanos() as f64)
                })
                .collect();
            match times {
                Ok(times) => alloc_oid_ns = crate::stats::median(&times),
                Err(e) => me.fail(format!("alloc_oid probe: {e}")),
            }
        }
        me.shared.sync.wait();
    }
    let Client { conn, state, recs, deltas, error, .. } = me;
    tracers.insert(0, conn.tr);
    ClientDone { tally: conn.tally, state, recs, deltas, error, tracers, alloc_oid_ns }
}
