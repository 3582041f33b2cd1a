//! Reduce what the runner recorded to named metrics, and print them.
//!
//! Reductions. Every time is CPU time of the process, and every time of
//! an end-to-end metric is first divided by its slice's `host` factor:
//! how much slower than the reference host the host ran around that
//! slice (see `pace` for both). A rate is the **interquartile mean over
//! rounds** (see `stats::mid_mean`) of (work of the clients in the
//! round's slices ÷ the slices' time).
//! `*_p50_us` is the median of all samples. `*_p99_us` is the
//! **median over rounds of the per-round p99**; where a round has fewer
//! than 1000 samples, consecutive rounds are pooled until a group has
//! 1000 (ten samples beyond its p99), and a phase with fewer than 1000
//! samples in the whole run gives the p99 of them all. The first round
//! is warm-up and is left out.

use crate::pace::REF_ECHO_S;
use crate::phases::{CLASS_NAMES, COMMIT, READ, WRITE};
use crate::probes::Probes;
use crate::runner::{Delta, Rec, RunData, CLIENTS};
use crate::stats::{mid_mean, percentile_ns, Summary};
use crate::workloads::{Plan, MIB, SIZED_FOR_SECONDS};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Samples a group of rounds needs before its p99 has ten samples beyond it.
const P99_GROUP: usize = 1000;

/// The end-to-end metrics, in reporting order. Bounds live in
/// `BENCHMARK.json`, the one place the driver reads them from.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "read_mibs",
    "pipe_read_mibs",
    "write_mibs",
    "txn_per_s",
    "read_p50_us",
    "write_p50_us",
    "commit_p50_us",
    "space_amp",
    "rss_peak_mib",
];

/// What the client sees beside those, reported on every run but gated by
/// no bound: on the shared host the tails move by 10-80 % from run to run
/// of the same binary, the timed load happens once per run, appends and
/// creates wait for the host's disk (whose pace changed eightfold within
/// an hour), a ratio that
/// must stay 0 has no median to take a share of, and the last two say
/// what the host did, not lobd: the share of the slices' wall time the
/// process was on the CPU (the rest waits for the disk and is in no
/// end-to-end time), and the median pace the times were scaled by.
pub const CLIENT: [&str; 9] = [
    "client.read_p99_us",
    "client.write_p99_us",
    "client.commit_p99_us",
    "client.load_mibs",
    "client.append_mibs",
    "client.create_p50_us",
    "client.fail_ratio",
    "client.cpu_share",
    "client.echo_us",
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Distribution the value was reduced from (over rounds, or set-ups).
    pub dist: Summary,
    /// Latency samples behind the value, where it is a percentile.
    pub samples: usize,
    /// The value with no time scaled by the host's pace: as measured.
    pub raw: f64,
}

pub struct Report {
    pub end_to_end: Vec<Metric>,
    /// The [`CLIENT`] metrics; part of the per-layer output of a traced run.
    pub client: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub waterfalls: String,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub errors: Vec<String>,
    pub header: String,
}

fn measured(r: &&Rec) -> bool {
    r.round >= 1 && r.rung == 0 && !r.traced && r.stage != "ladder"
}

/// What the times of `r`'s slice are divided by.
fn host(r: &Rec, scale: bool) -> f64 {
    r.host.filter(|_| scale).unwrap_or(1.0)
}

/// Per round: (amount, seconds) of the named phases' slices; with
/// `scale`, the seconds the reference host would have taken.
fn per_round(
    recs: &[&Rec],
    phases: &[&str],
    scale: bool,
    amount: impl Fn(&Rec) -> f64,
) -> Vec<(f64, f64)> {
    // (stage, round, phase) -> (amount, seconds). Clients run a slice
    // together and each times the whole process, so the slice took the
    // longest of their times.
    let mut slices: BTreeMap<(&str, usize, &str), (f64, f64)> = BTreeMap::new();
    for r in recs.iter().filter(|r| phases.contains(&r.phase)) {
        let e = slices.entry((r.stage, r.round, r.phase)).or_default();
        e.0 += amount(r);
        e.1 = e.1.max(r.cpu_s / host(r, scale));
    }
    let mut rounds: BTreeMap<(&str, usize), (f64, f64)> = BTreeMap::new();
    for ((stage, round, _), (amt, seconds)) in slices {
        let e = rounds.entry((stage, round)).or_default();
        e.0 += amt;
        e.1 += seconds;
    }
    rounds.into_values().collect()
}

fn rate(name: &str, unit: &'static str, rounds: &[(f64, f64)]) -> Metric {
    let mut rates: Vec<f64> =
        rounds.iter().filter(|(_, wall)| *wall > 0.0).map(|(a, w)| a / w).collect();
    // No slice of these phases in this workload: the rate is 0.
    if rates.is_empty() {
        rates.push(0.0);
    }
    Metric {
        name: name.into(),
        unit,
        value: mid_mean(&rates),
        dist: Summary::of(&rates),
        samples: 0,
        raw: f64::NAN,
    }
}

/// Latency samples of one class from the named phases, round by round;
/// with `scale`, each divided by its slice's host factor.
fn samples_by_round(recs: &[&Rec], phases: &[&str], class: usize, scale: bool) -> Vec<Vec<u32>> {
    let mut rounds: BTreeMap<(&str, usize), Vec<u32>> = BTreeMap::new();
    for r in recs.iter().filter(|r| phases.contains(&r.phase)) {
        let host = host(r, scale);
        let scaled = r.out.lat[class].iter().map(|&ns| (ns as f64 / host).round() as u32);
        rounds.entry((r.stage, r.round)).or_default().extend(scaled);
    }
    rounds.into_values().filter(|v| !v.is_empty()).collect()
}

fn p50_p99(prefix: &str, mut rounds: Vec<Vec<u32>>) -> [Metric; 2] {
    // No sample of this class in this workload: the latency is 0.
    if rounds.is_empty() {
        rounds.push(vec![0]);
    }
    let total: usize = rounds.iter().map(Vec::len).sum();
    let mut all: Vec<u32> = rounds.iter().flatten().copied().collect();
    let p50 = percentile_ns(&mut all, 0.5) / 1000.0;
    let round_p50: Vec<f64> =
        rounds.iter().map(|r| percentile_ns(&mut r.clone(), 0.5) / 1000.0).collect();

    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut cur: Vec<u32> = Vec::new();
    for r in rounds {
        cur.extend(r);
        if cur.len() >= P99_GROUP {
            groups.push(std::mem::take(&mut cur));
        }
    }
    // A short tail joins the last full group; with no full group it is all there is.
    match groups.last_mut() {
        Some(last) => last.extend(cur),
        None => groups.push(cur),
    }
    let group_p99: Vec<f64> = groups.iter_mut().map(|g| percentile_ns(g, 0.99) / 1000.0).collect();
    let p99 = Summary::of(&group_p99);
    [
        Metric {
            name: format!("{prefix}_p50_us"),
            unit: "us",
            value: p50,
            dist: Summary::of(&round_p50),
            samples: total,
            raw: f64::NAN,
        },
        Metric {
            name: format!("client.{prefix}_p99_us"),
            unit: "us",
            value: p99.median,
            dist: p99,
            samples: total,
            raw: f64::NAN,
        },
    ]
}

/// The end-to-end metrics and the client metrics, each in its order:
/// scaled to the reference host, or with `scale` off as measured.
fn end_to_end(plan: &Plan, data: &RunData, scale: bool) -> (Vec<Metric>, Vec<Metric>) {
    let recs: Vec<&Rec> = data.recs.iter().filter(measured).collect();
    let mib = |r: &Rec| r.out.bytes as f64 / MIB as f64;
    let mut by_name: HashMap<String, Metric> = HashMap::new();
    let mut put = |m: Metric| {
        by_name.insert(m.name.clone(), m);
    };
    let setup = Summary::of(if scale { &data.setup_s } else { &data.setup_raw_s });
    put(Metric {
        name: "setup_s".into(),
        unit: "s",
        value: setup.median,
        dist: setup,
        samples: 0,
        raw: f64::NAN,
    });
    for name in ["read_mibs", "pipe_read_mibs", "write_mibs"] {
        put(rate(name, "MiB/s", &per_round(&recs, plan.sources(name), scale, mib)));
    }
    put(rate(
        "txn_per_s",
        "1/s",
        &per_round(&recs, plan.sources("txn_per_s"), scale, |r| r.out.txns as f64),
    ));
    for (prefix, class) in [("read", READ), ("write", WRITE), ("commit", COMMIT)] {
        for m in p50_p99(prefix, samples_by_round(&recs, plan.sources(prefix), class, scale)) {
            put(m);
        }
    }
    let single = |name: &str, unit, value| Metric {
        name: name.into(),
        unit,
        value,
        dist: Summary::single(value),
        samples: 0,
        raw: f64::NAN,
    };
    put(single("space_amp", "ratio", data.stored_bytes as f64 / data.live_bytes.max(1) as f64));
    put(single("rss_peak_mib", "MiB", data.rss_peak_mib));
    put(rate("client.load_mibs", "MiB/s", &per_round(&recs, &["load"], scale, mib)));
    put(rate("client.append_mibs", "MiB/s", &per_round(&recs, &["append"], scale, mib)));
    let [mut create, _] = p50_p99("create", samples_by_round(&recs, &["create_txn"], WRITE, scale));
    create.name = "client.create_p50_us".into();
    put(create);
    put(single(
        "client.fail_ratio",
        "ratio",
        ratio(data.tally.failed as f64, data.tally.attempted as f64),
    ));
    let paced = || recs.iter().filter(|r| r.host.is_some());
    put(single(
        "client.cpu_share",
        "ratio",
        ratio(paced().map(|r| r.cpu_s).sum(), paced().map(|r| r.wall_s).sum()),
    ));
    let echo_us: Vec<f64> = paced().filter_map(|r| Some(r.host? * REF_ECHO_S * 1e6)).collect();
    let echo = Summary::of(&echo_us);
    put(Metric {
        name: "client.echo_us".into(),
        unit: "us",
        value: echo.median,
        dist: echo,
        samples: 0,
        raw: f64::NAN,
    });
    let mut take = |names: &[&str]| -> Vec<Metric> {
        names.iter().map(|n| by_name.remove(*n).expect("every listed metric is computed")).collect()
    };
    (take(&END_TO_END), take(&CLIENT))
}

// ---- per-layer -----------------------------------------------------------

/// Sum of counter deltas over the intervals `pick` selects.
struct Counters(HashMap<String, f64>);

impl Counters {
    fn over<'a>(deltas: impl Iterator<Item = &'a Delta>) -> Self {
        let mut sum: HashMap<String, f64> = HashMap::new();
        for d in deltas {
            for (k, v) in &d.counters {
                *sum.entry(k.clone()).or_default() += v;
            }
        }
        Self(sum)
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
    /// Sum over every counter whose name has this prefix and suffix.
    fn matching(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b != 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median unit latency (ns) of `phase` at each rung of the ladder.
fn ladder_medians(data: &RunData, phase: &str, class: usize) -> Option<[f64; 4]> {
    let mut out = [0.0; 4];
    for (rung, slot) in out.iter_mut().enumerate() {
        let mut all: Vec<u32> = data
            .recs
            .iter()
            .filter(|r| r.stage == "ladder" && r.round >= 1 && r.rung == rung && r.phase == phase)
            .flat_map(|r| r.out.lat[class].iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        *slot = percentile_ns(&mut all, 0.5);
    }
    Some(out)
}

struct Waterfall {
    phase: &'static str,
    class: &'static str,
    /// Median unit latency at each rung, single client.
    ladder: [f64; 4],
    traced_ns: f64,
    untraced_ns: f64,
    /// What is left of the core rung after the busy time below it.
    core_residual: f64,
    rows: Vec<(String, f64)>,
}

/// Busy time below `core`, per unit, from the counters of the core-rung
/// slices of `phase`: the rows the ladder cannot give by subtraction.
fn below_core(data: &RunData, phase: &str, class: usize, whole_txn: bool) -> Vec<(String, f64)> {
    let core = Counters::over(
        data.deltas.iter().filter(|d| matches!(d.slice, Some(("ladder", p, 3, _)) if p == phase)),
    );
    let units: usize = data
        .recs
        .iter()
        .filter(|r| r.stage == "ladder" && r.rung == 3 && r.phase == phase)
        .map(|r| r.out.lat[class].len())
        .sum();
    let per = |name: &str| ratio(core.get(name), units as f64);
    // Only spans that run on the request's own thread make a row:
    // `pool.capture` and `pool.writeback` also tick on the background
    // writer, so their time stays inside the core residual.
    let mut rows = Vec::new();
    if whole_txn {
        rows.push((
            "txn (txn.commit busy, with capture and log append)".into(),
            per("txn.commit.sum_ns"),
        ));
    }
    if class == COMMIT {
        rows.push(("txn (txn.clog.append busy)".into(), per("txn.clog.append.sum_ns")));
    } else {
        rows.push((
            "buffer+smgr (pool.miss.load busy, disk read inside)".into(),
            per("pool.miss.load.sum_ns"),
        ));
    }
    rows
}

fn waterfalls(plan: &Plan, data: &RunData) -> Vec<Waterfall> {
    let mut out = Vec::new();
    for phase in plan.phases.iter().filter(|p| !p.pipelined()) {
        let whole_txn = matches!(phase.name(), "create_txn" | "read_txn" | "edit_txn");
        let mut classes = vec![phase.unit_class()];
        if phase.name() == "update" {
            classes.push(COMMIT);
        }
        for class in classes {
            let Some(l) = ladder_medians(data, phase.name(), class) else { continue };
            let main = |traced: bool| {
                let mut all: Vec<u32> = data
                    .recs
                    .iter()
                    .filter(|r| {
                        r.stage != "ladder"
                            && r.round >= 1
                            && r.traced == traced
                            && r.phase == phase.name()
                    })
                    .flat_map(|r| r.out.lat[class].iter().copied())
                    .collect();
                percentile_ns(&mut all, 0.5)
            };
            let (traced_ns, untraced_ns) = (main(true), main(false));
            let mut rows = vec![
                ("server.reactor (tcp - loopback)".to_string(), l[0] - l[1]),
                ("server.proto (loopback - service)".to_string(), l[1] - l[2]),
                ("server.service (service - core)".to_string(), l[2] - l[3]),
            ];
            let below = below_core(data, phase.name(), class, whole_txn);
            let below_sum: f64 = below.iter().map(|(_, v)| v).sum();
            rows.extend(below);
            rows.push((
                "core residual (core+heap+btree self time, capture, write-back: unsplittable from outside)".into(),
                l[3] - below_sum,
            ));
            rows.push((
                "residual (traced median of the rounds - tcp rung of the ladder: background work, drift between the two)".into(),
                traced_ns - l[0],
            ));
            out.push(Waterfall {
                phase: phase.name(),
                class: CLASS_NAMES[class],
                ladder: l,
                traced_ns,
                untraced_ns,
                core_residual: l[3] - below_sum,
                rows,
            });
        }
    }
    out
}

pub struct LayerInputs<'a> {
    pub probes: &'a Probes,
    pub alloc_oid_ns: f64,
}

fn per_layer(
    plan: &Plan,
    data: &RunData,
    e2e: &[Metric],
    falls: &[Waterfall],
    inp: &LayerInputs,
) -> Vec<Metric> {
    let c = Counters::over(data.deltas.iter().filter(|d| d.slice.is_none()));
    let ops: f64 =
        data.recs.iter().filter(|r| r.stage != "ladder").map(|r| r.attempted as f64).sum();
    let user_written = c.get("lo.fchunk.write.bytes");
    // Log bytes appended while a slice that only reads was running: the
    // "bypass" prediction is that there are none (a few page images
    // captured in the background may trail the write slice before).
    let reading = ["seq_read", "pipe_read", "rand_read", "read_txn", "pipe_fetch"];
    let read_slices = Counters::over(
        data.deltas
            .iter()
            .filter(|d| matches!(d.slice, Some(("rounds", p, 0, _)) if reading.contains(&p))),
    );
    let e = |name: &str| e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);

    let primary_class =
        plan.phases.iter().find(|p| p.name() == plan.primary).map_or(READ, |p| p.unit_class());
    let fall =
        falls.iter().find(|w| w.phase == plan.primary && w.class == CLASS_NAMES[primary_class]);
    // Layer time by subtraction: rung `i` minus the rung below it.
    let step = |i: usize| fall.map_or(0.0, |w| w.ladder[i] - w.ladder[i + 1]);
    let core_residual = fall.map_or(0.0, |w| w.core_residual);
    let core_ns = fall.map_or(0.0, |w| w.ladder[3]);
    let overhead = fall.map_or(0.0, |w| ratio(w.traced_ns, w.untraced_ns));

    let p = inp.probes;
    let metrics: Vec<(&str, &'static str, f64)> = vec![
        ("server.reactor.ns_per_op", "ns", step(0)),
        ("server.proto.ns_per_op", "ns", step(1)),
        ("server.service.ns_per_op", "ns", step(2)),
        ("server.op.busy_ns_per_op", "ns", ratio(c.matching("server.op.", ".total_ns"), ops)),
        ("server.pipe_speedup", "ratio", ratio(e("pipe_read_mibs"), e("read_mibs"))),
        ("core.ns_per_op", "ns", core_ns),
        ("core.residual_ns_per_op", "ns", core_residual),
        (
            "core.chunks_per_op",
            "count",
            ratio(c.get("lo.fchunk.chunk_walk.sum_ns"), c.get("lo.fchunk.chunk_walk.count")),
        ),
        ("core.read_bytes", "B", c.get("lo.fchunk.read.bytes")),
        ("core.write_bytes", "B", user_written),
        ("btree.lookup_ns", "ns", p.btree_lookup_ns),
        ("btree.insert_ns", "ns", p.btree_insert_ns),
        ("heap.fetch_ns", "ns", p.heap_fetch_ns),
        ("heap.insert_ns", "ns", p.heap_insert_ns),
        (
            "buffer.hit_ratio",
            "ratio",
            ratio(c.get("pool.hits"), c.get("pool.hits") + c.get("pool.misses")),
        ),
        ("buffer.misses_per_op", "count", ratio(c.get("pool.misses"), ops)),
        ("buffer.evictions_per_op", "count", ratio(c.get("pool.evictions"), ops)),
        ("buffer.miss_load_busy_ns_per_op", "ns", ratio(c.get("pool.miss.load.sum_ns"), ops)),
        (
            "buffer.prefetch_useful_ratio",
            "ratio",
            ratio(c.get("pool.prefetch_hits"), c.get("pool.prefetch_pages")),
        ),
        (
            "buffer.pin_fast_ratio",
            "ratio",
            ratio(c.get("pool.pin.fast"), c.get("pool.pin.fast") + c.get("pool.pin.slow")),
        ),
        ("buffer.pin_retries", "count", c.get("pool.pin.retries")),
        ("buffer.pin_hit_ns", "ns", p.buffer_pin_hit_ns),
        ("buffer.capture_busy_ns_per_op", "ns", ratio(c.get("pool.capture.sum_ns"), ops)),
        (
            "buffer.capture_batch_pages",
            "count",
            ratio(c.get("pool.capture.batch.sum_ns"), c.get("pool.capture.batch.count")),
        ),
        ("buffer.writebacks", "count", c.get("pool.writebacks")),
        ("buffer.writeback_busy_ns", "ns", c.get("pool.writeback.sum_ns")),
        ("buffer.bgwriter_pages", "count", c.get("pool.bgwriter_pages")),
        (
            "wal.bytes_per_user_byte",
            "ratio",
            ratio(c.get("wal.append.bytes"), user_written.max(1.0)),
        ),
        ("wal.read_phase_bytes", "B", read_slices.get("wal.append.bytes")),
        (
            "wal.group_commit_batch",
            "count",
            ratio(c.get("wal.group_commit.batch.sum_ns"), c.get("wal.group_commit.batch.count")),
        ),
        ("wal.fsync_count", "count", c.get("wal.fsync.count")),
        ("wal.fsync_busy_ns", "ns", c.get("wal.fsync.sum_ns")),
        ("wal.recycled_segments", "count", c.get("wal.recycle.segments")),
        ("txn.commits", "count", c.get("txn.commits")),
        ("txn.aborts", "count", c.get("txn.aborts")),
        (
            "txn.commit_busy_ns_per_commit",
            "ns",
            ratio(c.get("txn.commit.sum_ns"), c.get("txn.commit.count")),
        ),
        (
            "txn.clog_append_ns_per_commit",
            "ns",
            ratio(c.get("txn.clog.append.sum_ns"), c.get("txn.clog.append.count")),
        ),
        ("smgr.disk.reads_per_op", "count", ratio(c.get("smgr.disk.read.count"), ops)),
        ("smgr.disk.writes_per_op", "count", ratio(c.get("smgr.disk.write.count"), ops)),
        ("smgr.disk.read_busy_ns_per_op", "ns", ratio(c.get("smgr.disk.read.sum_ns"), ops)),
        ("smgr.disk.write_busy_ns_per_op", "ns", ratio(c.get("smgr.disk.write.sum_ns"), ops)),
        ("smgr.disk.extends", "count", c.get("smgr.disk.extend.count")),
        ("smgr.disk.read_many_calls", "count", c.get("smgr.disk.read_many.count")),
        (
            "smgr.bytes_written_per_user_byte",
            "ratio",
            ratio(
                (c.get("smgr.disk.write.count") + c.get("smgr.disk.extend.count")) * 8192.0,
                user_written.max(1.0),
            ),
        ),
        ("heap.catalog.json_bytes", "B", data.catalog_json_bytes as f64),
        ("heap.catalog.alloc_oid_ns", "ns", inp.alloc_oid_ns),
        ("trace_overhead_ratio", "ratio", overhead),
    ];
    metrics
        .into_iter()
        .map(|(name, unit, v)| Metric {
            name: name.into(),
            unit,
            value: v,
            dist: Summary::single(v),
            samples: 0,
            raw: v,
        })
        .collect()
}

fn render_waterfalls(falls: &[Waterfall], data: &RunData) -> String {
    let mut s = String::new();
    for w in falls {
        let _ = writeln!(
            s,
            "waterfall {} / {} unit: traced median {:.1} us, untraced {:.1} us, trace_overhead_ratio {:.4}",
            w.phase,
            w.class,
            w.traced_ns / 1000.0,
            w.untraced_ns / 1000.0,
            ratio(w.traced_ns, w.untraced_ns)
        );
        let sum: f64 = w.rows.iter().map(|(_, v)| v).sum();
        for (name, v) in &w.rows {
            let _ = writeln!(
                s,
                "  {:>10.1} us  {:>6.1} %  {name}",
                v / 1000.0,
                100.0 * ratio(*v, w.traced_ns)
            );
        }
        let _ = writeln!(
            s,
            "  {:>10.1} us  rows sum ({:+.2} % of the traced median)",
            sum / 1000.0,
            100.0 * ratio(sum - w.traced_ns, w.traced_ns)
        );
    }
    if !data.unit_self_ns.is_empty() {
        let mut units: Vec<_> = data.unit_self_ns.iter().collect();
        units.sort_by_key(|(k, _)| **k);
        let _ = writeln!(
            s,
            "client self time per unit span (generating data, checking bytes), from {} spans:",
            data.spans
        );
        for (unit, ns) in units {
            let _ = writeln!(s, "  {:>10.1} us  {unit}", ns / 1000.0);
        }
    }
    s
}

pub fn build(plan: &Plan, seed: u64, data: &RunData, layers: Option<LayerInputs>) -> Report {
    let (mut e2e, mut client) = end_to_end(plan, data, true);
    let (raw_e2e, raw_client) = end_to_end(plan, data, false);
    for (m, raw) in e2e.iter_mut().chain(&mut client).zip(raw_e2e.iter().chain(&raw_client)) {
        m.raw = raw.value;
    }
    let falls = if layers.is_some() { waterfalls(plan, data) } else { Vec::new() };
    let per_layer = layers.map_or(Vec::new(), |inp| per_layer(plan, data, &e2e, &falls, &inp));
    let fp = &data.fingerprint;
    let rounds = |stage: &str| {
        let rounds: std::collections::BTreeSet<usize> =
            data.recs.iter().filter(|r| r.stage == stage).map(|r| r.round).collect();
        rounds.len()
    };
    let mut header = String::new();
    let _ = writeln!(header, "lobench {} seed {seed}: {}", plan.name, plan.why);
    let _ = writeln!(
        header,
        "host: nproc {}, commit {}, obs {}, durable_sync {} (flush policy: no fsync; the OS cache absorbs writes), \
         pool {} frames = {} MiB, ServerConfig::default() (2 reactors, 16 executors), {CLIENTS} closed-loop client over tcp",
        crate::pace::cpus().allowed,
        commit(),
        if fp.obs { "on" } else { "off" },
        fp.durable_sync,
        fp.pool_frames,
        fp.pool_frames * 8192 / MIB,
    );
    let paced: Vec<&Rec> = data.recs.iter().filter(measured).filter(|r| r.host.is_some()).collect();
    let hosts: Vec<f64> = paced.iter().filter_map(|r| r.host).collect();
    let on_cpu: Vec<String> = plan
        .phases
        .iter()
        .map(|p| {
            let of_phase = || paced.iter().filter(|r| r.phase == p.name());
            let (cpu, wall): (f64, f64) =
                (of_phase().map(|r| r.cpu_s).sum(), of_phase().map(|r| r.wall_s).sum());
            format!("{} {:.0} %", p.name(), 100.0 * ratio(cpu, wall))
        })
        .collect();
    let _ = writeln!(
        header,
        "steadying: process on {}; times are CPU time of the process, which is this share of the wall time (the rest \
         waits for the disk): {}; host pace {:.2} us per 4 KiB echo round trip (median of {} slices; reference {:.2} us): \
         every end-to-end time is divided, slice by slice, by pace / reference; per-layer times are as measured",
        crate::pace::cpus()
            .pinned
            .map_or("all CPUs (pinning refused)".into(), |c| format!("CPU {c} only")),
        on_cpu.join(", "),
        crate::stats::median(&hosts) * REF_ECHO_S * 1e6,
        hosts.len(),
        REF_ECHO_S * 1e6,
    );
    let _ = writeln!(
        header,
        "working set: {} x {:.2} MiB = {:.2} MiB at start ({:.2} x the pool); {} live objects, {:.2} MiB live at end",
        CLIENTS,
        plan.object_bytes as f64 / MIB as f64,
        (CLIENTS * plan.object_bytes) as f64 / MIB as f64,
        (CLIENTS * plan.object_bytes) as f64 / (fp.pool_frames * 8192) as f64,
        data.objects,
        data.live_bytes as f64 / MIB as f64,
    );
    let stages: Vec<String> = ["load", "rounds", "ladder"]
        .into_iter()
        .filter(|s| rounds(s) > 0)
        .map(|s| format!("{s} {}", rounds(s)))
        .collect();
    let _ = writeln!(
        header,
        "timed section {:.2} s ({} rounds at --seconds {SIZED_FOR_SECONDS}); slices run: {}; the first round warms up and is not counted",
        data.timed_s,
        plan.rounds,
        stages.join(", ")
    );
    Report {
        waterfalls: render_waterfalls(&falls, data),
        end_to_end: e2e,
        client,
        per_layer,
        attempted: data.tally.attempted,
        failed: data.tally.failed,
        correct: data.tally.failed == 0 && data.errors.is_empty(),
        errors: data.errors.clone(),
        header,
    }
}

impl Report {
    /// Every metric by name with its unit, then how steady it was.
    pub fn render(&self, bounds: &HashMap<String, f64>) -> String {
        let mut s = self.header.clone();
        let _ = writeln!(
            s,
            "{:<28} {:>14} {:<6} {:>14} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>8}",
            "metric",
            "value",
            "unit",
            "as measured",
            "n",
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "cv",
            "samples"
        );
        for m in self.end_to_end.iter().chain(&self.client).chain(&self.per_layer) {
            let d = &m.dist;
            let _ = writeln!(
                s,
                "{:<28} {:>14.4} {:<6} {:>14.4} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>7.4} {:>8}{}",
                m.name,
                m.value,
                m.unit,
                m.raw,
                d.n,
                d.min,
                d.q1,
                d.median,
                d.q3,
                d.max,
                d.cv,
                m.samples,
                bounds.get(&m.name).map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0)),
            );
        }
        let _ = writeln!(
            s,
            "{} of {} ops failed, were refused or returned wrong bytes",
            self.failed, self.attempted
        );
        s.push_str(&self.waterfalls);
        for e in &self.errors {
            let _ = writeln!(s, "ERROR: {e}");
        }
        s
    }

    /// The line the driver reads: one JSON object, every value as measured.
    pub fn result_line(&self, traced: bool) -> String {
        let (first, second): (&[Metric], &[Metric]) =
            if traced { (&self.client, &self.per_layer) } else { (&self.end_to_end, &[]) };
        let body: Vec<String> = first
            .iter()
            .chain(second)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The commit of the checkout the run started in, when it is a git
/// checkout; the driver's is not.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "unknown".into(),
        id => id.chars().take(12).collect(),
    }
}
