//! Spans recorded in lobench's own code, around each call into a rung:
//! name, start, end, the span that caused it, and a request id shared by
//! the spans of one unit of work (one transaction, one slice of reads).
//! Kept in memory; written to `lobench.trace.jsonl` when the run ends.
//! Spans inside lobd are a later change.

use std::collections::HashMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// All span times count from the first use of any tracer in the process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub struct Span {
    level: &'static str,
    op: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    parent: Option<u32>,
    request: u32,
}

/// One connection's spans. Off by default: `start` and `end` are then a
/// branch each, so the untraced run pays nothing it could measure.
pub struct Tracer {
    pub on: bool,
    level: &'static str,
    client: usize,
    spans: Vec<Span>,
    /// The open unit span: parent of every op span until `unit_end`.
    unit: Option<u32>,
    requests: u32,
}

impl Tracer {
    pub fn new(level: &'static str, client: usize) -> Self {
        Self { on: false, level, client, spans: Vec::new(), unit: None, requests: 0 }
    }

    fn push(&mut self, op: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            level: self.level,
            op,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request: self.requests,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Open the span of one call into the rung.
    pub fn start(&mut self, op: &'static str) -> Option<u32> {
        self.push(op, self.unit)
    }

    pub fn end(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = now_ns();
        }
    }

    /// Open a unit of work: the request root its op spans hang from.
    pub fn unit_begin(&mut self, name: &'static str) {
        self.requests += 1;
        self.unit = self.push(name, None);
    }

    pub fn unit_end(&mut self) {
        let unit = self.unit.take();
        self.end(unit);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean self time of each kind of unit span, in nanoseconds: duration
    /// minus the part its children cover — the client's own share of a
    /// unit (generating data, checking bytes).
    pub fn unit_self_ns(&self) -> HashMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut sums: HashMap<&'static str, (f64, f64)> = HashMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns).filter(|(s, _)| s.parent.is_none()) {
            let e = sums.entry(s.op).or_default();
            e.0 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c) as f64;
            e.1 += 1.0;
        }
        sums.into_iter().map(|(k, (sum, n))| (k, sum / n)).collect()
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"client\":{},\"span\":{i},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{}}}",
                self.client, s.level, s.op, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}
