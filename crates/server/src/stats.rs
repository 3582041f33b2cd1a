//! Server observability: per-op counters + latency histograms, and the
//! self-describing metrics frame that carries every metric on the wire.
//!
//! The `stats` reply is a frame of `name | kind | value` entries
//! ([`encode_metrics`]): adding a metric extends the entry list and never
//! changes a layout, so it never needs a protocol version bump.

use crate::proto::{self, Opcode, Reader};
use obs::{MetricEntry, MetricValue};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free per-opcode accounting: one latency histogram (which also
/// holds the call count and the summed nanoseconds) and one error counter
/// per opcode, in [`Opcode::ALL`] order. The histograms are deliberately
/// service-local (not in the process-global `obs` registry): one process
/// may host several services (the test binaries do, and so does
/// lobench's entry-point ladder) and their op latencies must not
/// cross-pollinate.
pub struct OpStats {
    errors: Vec<AtomicU64>,
    latency: Vec<obs::Histogram>,
}

impl Default for OpStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OpStats {
    /// Fresh zeroed table.
    pub fn new() -> Self {
        let n = Opcode::ALL.len();
        Self {
            errors: (0..n).map(|_| AtomicU64::new(0)).collect(),
            latency: (0..n).map(|_| obs::Histogram::new()).collect(),
        }
    }

    fn slot(op: Opcode) -> Option<usize> {
        Opcode::ALL.iter().position(|o| *o == op)
    }

    /// Record one completed request. An opcode missing from `ALL` would
    /// be unrecordable, not fatal; `ALL` is generated from the list that
    /// declares the enum, so none is.
    pub fn record(&self, op: Opcode, ok: bool, elapsed_ns: u64) {
        let Some(i) = Self::slot(op) else { return };
        if !ok {
            self.errors[i].fetch_add(1, Ordering::Relaxed);
        }
        self.latency[i].record(elapsed_ns);
    }

    /// Append `server.op.{name}.count/.errors/.total_ns` for every op
    /// seen at least once, plus its `.p50_ns/.p95_ns/.p99_ns` latency
    /// percentiles.
    pub fn entries(&self, out: &mut Vec<MetricEntry>) {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            let h = &self.latency[i];
            let count = h.count();
            if count == 0 {
                continue;
            }
            let mut put = |suffix: &str, v: u64| {
                let name = format!("server.op.{}.{suffix}", op.name());
                out.push(MetricEntry::new(name, MetricValue::Counter(v)));
            };
            put("count", count);
            put("errors", self.errors[i].load(Ordering::Relaxed));
            put("total_ns", h.sum());
            for (q, suffix) in [(0.50, "p50_ns"), (0.95, "p95_ns"), (0.99, "p99_ns")] {
                put(suffix, h.percentile(q));
            }
        }
    }
}

/// Encode a self-describing metrics frame: `u16` entry count, then per
/// entry `str name | u8 kind | u64 value bits` (kind 0 = counter, 1 =
/// gauge, 2 = float). This is the `stats` reply payload.
pub fn encode_metrics(entries: &[MetricEntry]) -> Vec<u8> {
    let n = entries.len().min(u16::MAX as usize);
    let mut out = Vec::new();
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for e in &entries[..n] {
        proto::put_str(&mut out, &e.name);
        out.push(e.value.kind());
        proto::put_u64(&mut out, e.value.bits());
    }
    out
}

/// Decode a self-describing metrics frame. Entries with an unknown kind
/// byte are skipped, not fatal: a newer server may grow kinds, and the
/// client must keep decoding the rest of the frame.
pub fn decode_metrics(payload: &[u8]) -> Result<Vec<MetricEntry>, proto::DecodeError> {
    let mut r = Reader::new(payload);
    let n = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let kind = r.u8()?;
        let bits = r.u64()?;
        if let Some(value) = MetricValue::from_kind_bits(kind, bits) {
            out.push(MetricEntry { name, value });
        }
    }
    r.finish()?;
    Ok(out)
}

/// The value of the entry called `name`, if the snapshot has one: a
/// metrics snapshot has no typed view, callers look entries up by name.
pub fn metric(entries: &[MetricEntry], name: &str) -> Option<MetricValue> {
    entries.iter().find(|e| e.name == name).map(|e| e.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(entries: &[MetricEntry], name: &str) -> Option<u64> {
        metric(entries, name).map(|v| v.as_u64())
    }

    #[test]
    fn record_and_entries() {
        let s = OpStats::new();
        s.record(Opcode::LoRead, true, 100);
        s.record(Opcode::LoRead, false, 50);
        s.record(Opcode::Begin, true, 10);
        let mut entries = Vec::new();
        s.entries(&mut entries);
        // `.count` and `.total_ns` come from the latency histogram, so a
        // failed call is counted and timed like a successful one.
        assert_eq!(value(&entries, "server.op.lo_read.count"), Some(2));
        assert_eq!(value(&entries, "server.op.lo_read.errors"), Some(1));
        assert_eq!(value(&entries, "server.op.lo_read.total_ns"), Some(150));
        assert_eq!(value(&entries, "server.op.begin.count"), Some(1));
        // An op whose every call failed still reports: `.count` is calls.
        s.record(Opcode::Ping, false, 7);
        let mut entries = Vec::new();
        s.entries(&mut entries);
        assert_eq!(value(&entries, "server.op.ping.count"), Some(1));
        assert_eq!(value(&entries, "server.op.ping.errors"), Some(1));
        assert_eq!(value(&entries, "server.op.ping.total_ns"), Some(7));
        // Unseen ops stay silent.
        assert!(!entries.iter().any(|e| e.name.starts_with("server.op.stats.")));
    }

    #[test]
    fn latency_entries_cover_seen_ops() {
        let s = OpStats::new();
        for ns in [100u64, 200, 400, 100_000] {
            s.record(Opcode::LoRead, true, ns);
        }
        let mut entries = Vec::new();
        s.entries(&mut entries);
        for q in ["p50_ns", "p95_ns", "p99_ns"] {
            assert!(value(&entries, &format!("server.op.lo_read.{q}")).is_some(), "missing {q}");
        }
    }

    #[test]
    fn metrics_frame_roundtrip() {
        let entries = vec![
            MetricEntry::new("pool.hits", MetricValue::Counter(42)),
            MetricEntry::new("pool.hit_rate", MetricValue::Float(0.883)),
            MetricEntry::new("txn.active", MetricValue::Gauge(3)),
        ];
        let enc = encode_metrics(&entries);
        assert_eq!(decode_metrics(&enc).unwrap(), entries);
        // Truncation is an error, not a partial decode.
        assert!(decode_metrics(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn metrics_frame_skips_unknown_kinds() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&2u16.to_le_bytes());
        proto::put_str(&mut enc, "future.metric");
        enc.push(9); // unknown kind
        proto::put_u64(&mut enc, 7);
        proto::put_str(&mut enc, "pool.hits");
        enc.push(0);
        proto::put_u64(&mut enc, 5);
        let decoded = decode_metrics(&enc).unwrap();
        assert_eq!(decoded, vec![MetricEntry::new("pool.hits", MetricValue::Counter(5))]);
    }
}
