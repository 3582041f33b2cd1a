//! The four workloads as plans over the phase library. Every op count
//! here is a constant with its reason beside it; a run's only inputs are
//! the workload's name, the seed, the run length and `--trace`.
//!
//! Why the work is fixed and not the time. How much a run has written
//! decides `space_amp`, `rss_peak_mib` and how slow the next write is
//! (versions pile up), and the host's speed wanders by tens of per cent
//! from minute to minute: a run that wrote for a fixed time would write a
//! different amount every time. So a run is a fixed number of rounds,
//! sized so that at `--seconds 25` the timed section takes 14 to 20 s on
//! the host this was written on and the whole run, set-ups and read-back
//! included, stays under 25 s; `--seconds` scales that number. A run
//! that takes more than 1.5 x `--seconds` is cut short, so a stalled
//! host cannot hold it for ever.

use crate::phases::{Phase, ALBUM_OBJ, SEQ_IO};

pub const MIB: usize = 1024 * 1024;

/// The run length the round counts below were sized for.
pub const SIZED_FOR_SECONDS: f64 = 25.0;

pub struct Plan {
    pub name: &'static str,
    pub why: &'static str,
    /// Bytes per client (there is one) in its object when the rounds start
    /// (`album_txn`: in its preloaded album).
    pub object_bytes: usize,
    /// Bytes per client in a second object that takes the updates, where
    /// the first must stay as loaded; 0 for none.
    pub scratch_bytes: usize,
    /// `big_stream` loads its objects inside the timed section, in this
    /// many slices; the others preload during set-up.
    pub timed_load_slices: usize,
    pub album: bool,
    /// Set-ups per run; `setup_s` is their median. More where a set-up
    /// is tens of milliseconds and one scheduler hiccup doubles it.
    pub setups: usize,
    /// One fixed slice of each of these per round, in this order.
    pub phases: Vec<Phase>,
    /// Rounds at `--seconds 25`; the first warms up and is not counted.
    pub rounds: usize,
    /// Which phases feed each end-to-end metric that comes from a phase.
    pub sources: Vec<(&'static str, Vec<&'static str>)>,
    /// The phase whose unit of work the per-layer ladder metrics describe.
    pub primary: &'static str,
}

pub const NAMES: [&str; 4] = ["hot_read", "big_stream", "frame_update", "album_txn"];

/// Sources shared by the three single-object workloads.
fn object_sources() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("read_mibs", vec!["seq_read"]),
        ("pipe_read_mibs", vec!["pipe_read"]),
        ("read", vec!["rand_read"]),
        ("write_mibs", vec!["update"]),
        ("write", vec!["update"]),
        ("commit", vec!["update"]),
        ("txn_per_s", vec!["update"]),
    ]
}

pub fn plan(name: &str) -> Option<Plan> {
    Some(match name {
        "hot_read" => Plan {
            name: "hot_read",
            why: "an 8 MiB object, a quarter of the 32 MiB pool: every page read is a pool hit and the \
                  log is idle while reading, so reactor, protocol, service and the chunk lookup do the work",
            object_bytes: 8 * MIB,
            // The updates every workload must report go to a 1 MiB object
            // of their own, so the object read stays exactly as loaded.
            scratch_bytes: MIB,
            timed_load_slices: 0,
            album: false,
            setups: 9,
            // 128 x 64 KiB is the whole object, so a round reads every
            // byte twice (window 1, window 8); 1000 frames put 10
            // samples beyond each round's p99. The updates are a trickle
            // of single-frame transactions, 12 per round: every write
            // adds an 8 KiB page of new version, and the run's 1200 of
            // them (9.4 MiB) must fit the pool beside the 9 MiB of
            // objects, or the reads stop being hits.
            phases: vec![
                Phase::SeqRead { ops: 128 },
                Phase::PipeRead { ops: 128 },
                Phase::RandRead { ops: 1000, local: false },
                Phase::Update { txns: 12, writes: 1, local: false, scratch: true },
            ],
            // About 0.2 s a round.
            rounds: 100,
            sources: object_sources(),
            primary: "rand_read",
        },
        "big_stream" => Plan {
            name: "big_stream",
            why: "a 128 MiB object, four times the 32 MiB pool, and growing: misses, eviction, \
                  read-ahead, write-back and the disk manager do the work; the sequential-write case of the paper",
            object_bytes: 128 * MIB,
            scratch_bytes: 0,
            // 16 slices of 8 MiB, for a median and quartiles of the load
            // rate.
            timed_load_slices: 16,
            album: false,
            // Set-up is lobd's start and an empty object: 25 ms.
            setups: 15,
            // 128 x 64 KiB = 8 MiB per scan phase: a sixteenth of the
            // object, so no slice can be served from what the slice
            // before left in the pool. 8 appends of 64 KiB are the
            // sequential writes a round measures (the load before the
            // rounds happens once, so it cannot be a median over rounds);
            // few, because each waits for the disk twice and feeds only
            // `client.append_mibs`, which has no bound.
            phases: vec![
                Phase::SeqRead { ops: 128 },
                Phase::PipeRead { ops: 128 },
                Phase::RandRead { ops: 1000, local: true },
                Phase::Append { ops: 8 },
                Phase::Update { txns: 32, writes: 8, local: true, scratch: false },
            ],
            // About 0.45 s a round after 2 s of load.
            rounds: 50,
            sources: object_sources(),
            primary: "rand_read",
        },
        "frame_update" => Plan {
            name: "frame_update",
            why: "an 8 MiB object rewritten frame by frame: page-image capture, commit and \
                  no-overwrite version growth do the work, and reads of the same objects show \
                  what the writes cost them",
            object_bytes: 8 * MIB,
            scratch_bytes: 0,
            timed_load_slices: 0,
            album: false,
            setups: 9,
            // 16 txns x 32 writes: 512 write samples a round and half of
            // its time. The reads that ride along price the
            // version growth: 1000 frames, and the whole object twice.
            phases: vec![
                Phase::Update { txns: 16, writes: 32, local: false, scratch: false },
                Phase::RandRead { ops: 1000, local: false },
                Phase::SeqRead { ops: 128 },
                Phase::PipeRead { ops: 128 },
            ],
            // About 0.65 s a round: 448 transactions and 56 MiB written,
            // 7 times the object.
            rounds: 28,
            sources: object_sources(),
            primary: "update",
        },
        "album_txn" => Plan {
            name: "album_txn",
            why: "many 64 KiB objects in small transactions: catalog, relation creation, open \
                  and the commit log do the work, which no single-object workload touches",
            // No preload: the first round, which warms up, creates 8
            // objects before anything reads. A create waits for the disk,
            // and set-ups that did 16 of them spread 40-50 %.
            object_bytes: 0,
            scratch_bytes: 0,
            timed_load_slices: 0,
            album: true,
            // Set-up is lobd's start: 25 ms.
            setups: 15,
            // 8 creates (2 unlinks), 32 edits, 96 reads and 8 x 8
            // pipelined fetches per round. A create costs tens of reads
            // and, unlike everything else here, waits for the disk (the
            // catalog fsyncs its directory several times per create), so
            // it feeds no bounded metric: its latency is reported as
            // `client.create_p50_us`. The album's bounded write is the
            // edit, which changes no catalog entry.
            phases: vec![
                Phase::CreateTxn { txns: 8 },
                Phase::EditTxn { txns: 32 },
                Phase::ReadTxn { txns: 96 },
                Phase::PipeFetch { txns: 8 },
            ],
            // About 0.35 s a round, more as the catalog grows: 336 live
            // objects at the end.
            rounds: 56,
            sources: vec![
                ("read_mibs", vec!["read_txn"]),
                ("pipe_read_mibs", vec!["pipe_fetch"]),
                ("read", vec!["read_txn"]),
                ("write_mibs", vec!["edit_txn"]),
                ("write", vec!["edit_txn"]),
                ("commit", vec!["edit_txn"]),
                ("txn_per_s", vec!["edit_txn", "read_txn", "pipe_fetch"]),
            ],
            primary: "create_txn",
        },
        _ => return None,
    })
}

impl Plan {
    /// The plan at `1/div` of its size, for `--smoke`.
    pub fn scaled(mut self, div: usize) -> Self {
        let unit = if self.album { ALBUM_OBJ } else { SEQ_IO };
        if self.object_bytes > 0 {
            self.object_bytes = (self.object_bytes / div).max(4 * unit) / unit * unit;
        }
        self.scratch_bytes = self.scratch_bytes.min(4 * unit);
        self.timed_load_slices = self.timed_load_slices.min(4);
        for phase in &mut self.phases {
            *phase = phase.scaled(div);
        }
        self
    }

    pub fn sources(&self, key: &str) -> &[&'static str] {
        self.sources.iter().find(|(k, _)| *k == key).map_or(&[], |(_, v)| v.as_slice())
    }
}
