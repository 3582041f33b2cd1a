//! Workspace observability: lock-free counters, gauges, and fixed-bucket
//! latency histograms in a process-global registry, plus RAII span timers
//! with a per-thread ring of recent spans (dumpable on panic or demand).
//!
//! The paper's Section 9 is an exercise in measuring this system; this
//! crate is the measuring tape. Metric names follow `layer.op.unit`
//! (e.g. `smgr.disk.read`, `lo.fchunk.read.bytes`) — `pglo-lint` rule R6
//! enforces the shape and workspace-wide uniqueness of every name passed
//! to the `counter!`/`gauge!`/`histogram!`/`span!` macros.
//!
//! Histograms use 64 power-of-two nanosecond buckets: bucket 0 holds the
//! value 0 and bucket `i` holds values of bit length `i`, i.e. the range
//! `[2^(i-1), 2^i - 1]`. Percentiles report the upper bound of the bucket
//! containing the requested rank, so they are exact to within 2x — plenty
//! for p50/p95/p99 latency plots, and recording is two relaxed atomic adds
//! (bucket + sum).
//!
//! Instrumentation is always compiled in; there is no switch to turn it
//! off. Everything is lock-free: metrics are plain atomics, and the
//! process-global registry is a fixed array of `OnceLock` slots indexed
//! by a fetch-add cursor — registration never blocks readers, readers
//! never block writers. A reader that observes the cursor past a slot
//! whose `OnceLock` is not yet set simply skips it (the metric appears
//! in the next snapshot).

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether instrumentation is compiled into this build: always `true`.
/// Kept for callers that record it beside their measurements.
pub const fn active() -> bool {
    true
}

/// Number of histogram buckets (power-of-two ns, bucket 0 = zero).
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for a recorded value: 0 for 0, else the bit length,
/// saturating at the last bucket.
pub const fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        let bits = 64 - v.leading_zeros() as usize;
        if bits < NUM_BUCKETS {
            bits
        } else {
            NUM_BUCKETS - 1
        }
    }
}

/// Largest value a bucket can hold (`2^i - 1`; the last bucket is open).
pub const fn bucket_upper_bound(i: usize) -> u64 {
    if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One metric value in a snapshot. `Counter` is monotonic, `Gauge` is a
/// level, `Float` carries derived ratios (e.g. a hit rate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Float(f64),
}

impl MetricValue {
    /// Wire kind byte: 0 = counter, 1 = gauge, 2 = float (f64 bits).
    pub fn kind(&self) -> u8 {
        match self {
            MetricValue::Counter(_) => 0,
            MetricValue::Gauge(_) => 1,
            MetricValue::Float(_) => 2,
        }
    }

    /// Value as raw u64 bits (floats via `to_bits`).
    pub fn bits(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Float(f) => f.to_bits(),
        }
    }

    /// Inverse of [`kind`](Self::kind) + [`bits`](Self::bits); `None` for
    /// an unknown kind byte (future producers may add kinds).
    pub fn from_kind_bits(kind: u8, bits: u64) -> Option<Self> {
        match kind {
            0 => Some(MetricValue::Counter(bits)),
            1 => Some(MetricValue::Gauge(bits)),
            2 => Some(MetricValue::Float(f64::from_bits(bits))),
            _ => None,
        }
    }

    /// Integral view (floats truncate).
    pub fn as_u64(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Float(f) => *f as u64,
        }
    }

    /// Floating view.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v as f64,
            MetricValue::Float(f) => *f,
        }
    }
}

/// One named metric in a snapshot. Histograms appear flattened as five
/// scalar entries: `{name}.count`, `{name}.sum_ns`, `{name}.p50_ns`,
/// `{name}.p95_ns`, `{name}.p99_ns`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    pub name: String,
    pub value: MetricValue,
}

impl MetricEntry {
    pub fn new(name: impl Into<String>, value: MetricValue) -> Self {
        Self { name: name.into(), value }
    }
}

/// Prometheus-flavoured text exposition: one `name value` line per entry,
/// sorted by name. Counters and gauges print as integers, floats with six
/// decimal places.
pub fn render_text(entries: &[MetricEntry]) -> String {
    let mut sorted: Vec<&MetricEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let line = |e: &&MetricEntry| match e.value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => format!("{} {v}\n", e.name),
        MetricValue::Float(f) => format!("{} {f:.6}\n", e.name),
    };
    sorted.iter().map(line).collect()
}

/// Monotonic event counter.
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self { v: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Instantaneous level (sessions open, frames pinned, ...).
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self { v: AtomicU64::new(0) }
    }

    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-bucket power-of-two-ns latency histogram; see the bucket layout
/// notes in the crate docs. Recording is one atomic add per bucket plus
/// one for the running sum.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Self {
        Self { buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS], sum: AtomicU64::new(0) }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total recorded events (sums the buckets; racing recorders make
    /// this approximate, never torn).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding the `q`-quantile (0 < q <= 1),
    /// or 0 when empty. Exact to within the 2x bucket width.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Flatten into the five scalar snapshot entries.
    fn entries(&self, name: &str, out: &mut Vec<MetricEntry>) {
        out.push(MetricEntry::new(format!("{name}.count"), MetricValue::Counter(self.count())));
        out.push(MetricEntry::new(format!("{name}.sum_ns"), MetricValue::Counter(self.sum())));
        for (q, suffix) in [(0.50, "p50_ns"), (0.95, "p95_ns"), (0.99, "p99_ns")] {
            out.push(MetricEntry::new(
                format!("{name}.{suffix}"),
                MetricValue::Counter(self.percentile(q)),
            ));
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// What a registry slot points at.
#[derive(Clone, Copy)]
pub enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

#[derive(Clone, Copy)]
struct Entry {
    name: &'static str,
    metric: MetricRef,
}

/// Registry capacity. Registration past this is counted (and surfaced in
/// snapshots as `obs.registry.overflow`) rather than silently dropped.
const MAX_METRICS: usize = 512;

static SLOTS: [OnceLock<Entry>; MAX_METRICS] = [const { OnceLock::new() }; MAX_METRICS];
static CURSOR: AtomicUsize = AtomicUsize::new(0);
static OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Register a metric in the process-global registry. Called once per
/// macro site (the macros guard with an `AtomicBool`); callers managing
/// their own statics may also call it directly.
pub fn register(name: &'static str, metric: MetricRef) {
    let idx = CURSOR.fetch_add(1, Ordering::AcqRel);
    // `idx` is this call's own, so `set` cannot find the slot taken.
    if idx >= MAX_METRICS || SLOTS[idx].set(Entry { name, metric }).is_err() {
        OVERFLOW.fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot every registered metric, name-sorted. Histograms flatten to
/// `.count`/`.sum_ns`/`.p50_ns`/`.p95_ns`/`.p99_ns` scalar entries.
pub fn snapshot_entries() -> Vec<MetricEntry> {
    let n = CURSOR.load(Ordering::Acquire).min(MAX_METRICS);
    let mut out = Vec::with_capacity(n);
    for slot in SLOTS.iter().take(n) {
        // A slot whose cursor ticket was taken but whose set() has not
        // landed yet is skipped; it shows up in the next snapshot.
        let Some(e) = slot.get() else { continue };
        match e.metric {
            MetricRef::Counter(c) => {
                out.push(MetricEntry::new(e.name, MetricValue::Counter(c.get())))
            }
            MetricRef::Gauge(g) => out.push(MetricEntry::new(e.name, MetricValue::Gauge(g.get()))),
            MetricRef::Histogram(h) => h.entries(e.name, &mut out),
        }
    }
    let overflow = OVERFLOW.load(Ordering::Relaxed);
    if overflow > 0 {
        out.push(MetricEntry::new("obs.registry.overflow", MetricValue::Counter(overflow)));
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Capacity of the per-thread recent-span ring.
const SPAN_RING: usize = 64;

struct SpanRing {
    spans: Vec<(&'static str, u64)>,
    /// Overwrite position once full (oldest entry).
    next: usize,
}

impl SpanRing {
    const fn new() -> Self {
        Self { spans: Vec::new(), next: 0 }
    }

    fn push(&mut self, name: &'static str, ns: u64) {
        if self.spans.len() < SPAN_RING {
            self.spans.push((name, ns));
        } else {
            self.spans[self.next] = (name, ns);
            self.next = (self.next + 1) % SPAN_RING;
        }
    }

    fn oldest_first(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::with_capacity(self.spans.len());
        out.extend_from_slice(&self.spans[self.next..]);
        out.extend_from_slice(&self.spans[..self.next]);
        out
    }
}

thread_local! {
    static RING: RefCell<SpanRing> = const { RefCell::new(SpanRing::new()) };
}

/// The current thread's recent spans, oldest first: `(name, elapsed_ns)`.
pub fn recent_spans() -> Vec<(&'static str, u64)> {
    RING.with(|r| r.borrow().oldest_first())
}

/// Text dump of the current thread's recent spans, oldest first.
pub fn dump_recent_spans() -> String {
    recent_spans().into_iter().map(|(name, ns)| format!("{name} {ns}ns\n")).collect()
}

/// Install a panic hook (once per process) that dumps the panicking
/// thread's recent spans to stderr before the previous hook runs.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let dump = dump_recent_spans();
        if !dump.is_empty() {
            eprintln!("--- obs: recent spans on panicking thread (oldest first) ---");
            eprint!("{dump}");
            eprintln!("------------------------------------------------------------");
        }
        prev(info);
    }));
}

/// RAII span timer: created by `obs::span!`, records elapsed ns into its
/// histogram and the per-thread ring when dropped.
pub struct SpanGuard {
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
}

impl SpanGuard {
    #[inline]
    pub fn start(name: &'static str, hist: &'static Histogram) -> Self {
        Self { name, hist, start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a guard dropped in thread teardown finds the ring gone; its span is lost"
        )]
        let _ = RING.try_with(|r| r.borrow_mut().push(self.name, ns));
    }
}

/// A process-global named counter; returns `&'static Counter`.
///
/// The backing static registers itself in the global registry on first
/// use.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __OBS_METRIC: $crate::Counter = $crate::Counter::new();
        static __OBS_ONCE: ::std::sync::atomic::AtomicBool =
            ::std::sync::atomic::AtomicBool::new(false);
        if !__OBS_ONCE.swap(true, ::std::sync::atomic::Ordering::Relaxed) {
            $crate::register($name, $crate::MetricRef::Counter(&__OBS_METRIC));
        }
        &__OBS_METRIC
    }};
}

/// A process-global named gauge; returns `&'static Gauge`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __OBS_METRIC: $crate::Gauge = $crate::Gauge::new();
        static __OBS_ONCE: ::std::sync::atomic::AtomicBool =
            ::std::sync::atomic::AtomicBool::new(false);
        if !__OBS_ONCE.swap(true, ::std::sync::atomic::Ordering::Relaxed) {
            $crate::register($name, $crate::MetricRef::Gauge(&__OBS_METRIC));
        }
        &__OBS_METRIC
    }};
}

/// A process-global named latency histogram; returns `&'static Histogram`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __OBS_METRIC: $crate::Histogram = $crate::Histogram::new();
        static __OBS_ONCE: ::std::sync::atomic::AtomicBool =
            ::std::sync::atomic::AtomicBool::new(false);
        if !__OBS_ONCE.swap(true, ::std::sync::atomic::Ordering::Relaxed) {
            $crate::register($name, $crate::MetricRef::Histogram(&__OBS_METRIC));
        }
        &__OBS_METRIC
    }};
}

/// RAII span timer: `let _span = obs::span!("smgr.disk.read");` records
/// the elapsed nanoseconds into the named histogram when the guard drops,
/// and pushes the span into the per-thread recent-span ring.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::start($name, $crate::histogram!($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn value_kind_bits_roundtrip() {
        for v in [MetricValue::Counter(42), MetricValue::Gauge(7), MetricValue::Float(0.883)] {
            let back = MetricValue::from_kind_bits(v.kind(), v.bits()).expect("known kind");
            assert_eq!(back, v);
        }
        assert_eq!(MetricValue::from_kind_bits(9, 0), None);
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 5, 100, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn text_exposition_sorted_lines() {
        let entries = vec![
            MetricEntry::new("pool.hits", MetricValue::Counter(10)),
            MetricEntry::new("pool.hit_rate", MetricValue::Float(0.5)),
            MetricEntry::new("a.first", MetricValue::Gauge(1)),
        ];
        let text = render_text(&entries);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["a.first 1", "pool.hit_rate 0.500000", "pool.hits 10"]);
    }

    #[test]
    fn histogram_hammer_conserves_count_and_sum() {
        // Satellite test: 8 threads hammering one histogram; the
        // total count and sum must be conserved.
        let h = crate::histogram!("obs.test.hammer");
        let expect_sum = AtomicU64::new(0);
        thread::scope(|s| {
            for t in 0..8u64 {
                let expect_sum = &expect_sum;
                s.spawn(move || {
                    let mut local = 0u64;
                    for i in 0..10_000u64 {
                        let v = t * 31 + i % 977;
                        h.record(v);
                        local += v;
                    }
                    expect_sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.sum(), expect_sum.load(Ordering::Relaxed));
        // Percentiles are monotone in q.
        let (p50, p95, p99) = (h.percentile(0.50), h.percentile(0.95), h.percentile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 >= 976, "p99 bucket bound {p99} below max recorded value");
    }

    #[test]
    fn registry_snapshot_sees_macro_metrics() {
        // One macro site = one static; R6 uniqueness exists so two
        // sites can never silently split one name's counts.
        let c = crate::counter!("obs.test.reg_counter");
        c.add(3);
        c.inc();
        crate::gauge!("obs.test.reg_gauge").set(17);
        let entries = snapshot_entries();
        let find = |n: &str| {
            entries
                .iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("metric {n} missing from snapshot"))
                .value
        };
        assert_eq!(find("obs.test.reg_counter"), MetricValue::Counter(4));
        assert_eq!(find("obs.test.reg_gauge"), MetricValue::Gauge(17));
        // Snapshots are name-sorted for stable exposition.
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn histogram_flattens_to_percentile_entries() {
        let h = crate::histogram!("obs.test.flat");
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        let entries = snapshot_entries();
        for suffix in ["count", "sum_ns", "p50_ns", "p95_ns", "p99_ns"] {
            assert!(
                entries.iter().any(|e| e.name == format!("obs.test.flat.{suffix}")),
                "missing obs.test.flat.{suffix}"
            );
        }
        let count =
            entries.iter().find(|e| e.name == "obs.test.flat.count").expect("count entry").value;
        assert_eq!(count, MetricValue::Counter(5));
    }

    #[test]
    fn span_guard_records_into_ring_and_histogram() {
        {
            let _span = crate::span!("obs.test.span");
            std::hint::black_box(1 + 1);
        }
        let spans = recent_spans();
        assert!(
            spans.iter().any(|(name, _)| *name == "obs.test.span"),
            "span missing from recent ring: {spans:?}"
        );
        let entries = snapshot_entries();
        let count = entries
            .iter()
            .find(|e| e.name == "obs.test.span.count")
            .expect("span histogram registered")
            .value;
        assert!(count.as_u64() >= 1);
        assert!(!dump_recent_spans().is_empty());
    }
}
