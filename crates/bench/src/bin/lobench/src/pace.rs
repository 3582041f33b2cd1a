//! What steadies the numbers on a shared host: the whole process on one
//! CPU, every time taken on the process's CPU clock, and the host's pace
//! measured beside every slice.
//!
//! Why one CPU. The host this was written on lends the sandbox 2 virtual
//! CPUs. A closed-loop client leaves a CPU idle while it waits, an idle
//! virtual CPU halts, and waking it costs from 5 to 70 us depending on
//! what the host's other guests do: with client and lobd spread over both
//! CPUs a 4 KiB read took 240-310 us, of which lobd's work was 80. On one
//! CPU a hand-off between threads is a context switch, the CPU never
//! halts during a slice, and the same read takes 80 us run after run.
//!
//! Why the CPU clock. With `durable_sync = false` lobd waits for the disk
//! in one place, the catalog's directory fsync, and the host's disk is
//! shared: the same 64 KiB write, rename and fsync took 1.1 ms in one
//! run and 9.1 ms in the next, and an `album_txn` create-transaction 20
//! or 71 ms with it. A time that includes that wait cannot be held to any
//! bound. So a time here is the CPU time the process (client thread and
//! lobd's threads alike) used: equal to the wall time wherever lobd does
//! not wait for the disk, which is everywhere but in create, unlink and
//! append, and there it is the part of the time a change to lobd's code
//! moves. How much of each phase's wall time that is, is printed.
//!
//! Why a pace. The physical core under the CPU is shared too, and the
//! same instructions take 1.0 to 1.5 times as long from one second to the
//! next. So every slice runs between two *pace* samples: a fixed number
//! of 4 KiB echo round trips over TCP with a thread of lobench's own,
//! which is lobd's kind of work (system calls, context switches, copies,
//! a checksum) with no lobd in it. The slice's times are divided by how
//! much slower than [`REF_ECHO_S`] the echo ran around it. Ten runs of
//! `hot_read` over an hour spread 11-18 % as measured and 2-6 % scaled.

use crate::backend::R;
use crate::stats::checksum;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per pace sample: about 3 ms, long enough to average over
/// scheduler ticks and short beside a slice (40 ms and more).
const ROUND_TRIPS: usize = 320;
/// The reply's size: the paper's frame.
const REPLY: usize = 4096;
const REQUEST: usize = 32;
/// CPU seconds per echo round trip on the reference host: the median on
/// the host this was written on, so scaled and measured times are alike
/// there.
pub const REF_ECHO_S: f64 = 8.0e-6;

#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, t: *mut Timespec) -> i32;
}

/// The CPUs the process found and the one it keeps.
pub struct Cpus {
    /// CPUs the process was allowed when it started.
    pub allowed: usize,
    /// The CPU it bound itself to; `None` where the host has no such
    /// call or refuses it: the run then goes on unpinned and says so.
    pub pinned: Option<usize>,
}

/// The first call, which `main` makes before it starts anything, binds
/// the calling thread, and so every thread and process it starts from
/// there on, to the first CPU it may run on.
pub fn cpus() -> &'static Cpus {
    static CPUS: std::sync::OnceLock<Cpus> = std::sync::OnceLock::new();
    CPUS.get_or_init(pin_to_one_cpu)
}

fn pin_to_one_cpu() -> Cpus {
    let unpinned =
        Cpus { allowed: std::thread::available_parallelism().map_or(0, usize::from), pinned: None };
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes
        // that the call fills; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let Some((word, bits)) = mask.iter().enumerate().find(|(_, w)| **w != 0) else {
            return unpinned;
        };
        if got != 0 {
            return unpinned;
        }
        let bit = bits.trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live array of the size given, only read.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        Cpus {
            allowed: mask.iter().map(|w| w.count_ones() as usize).sum(),
            pinned: (set == 0).then_some(word * 64 + bit),
        }
    }
    #[cfg(not(target_os = "linux"))]
    unpinned
}

/// Seconds on the clock every time is taken on: the CPU time this
/// process, all its threads together, has used; where the host has no
/// such clock, the wall time since the first call.
pub fn cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut t = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `t` is a live timespec the call fills; clock 2 is
        // CLOCK_PROCESS_CPUTIME_ID.
        if unsafe { clock_gettime(2, &mut t) } == 0 {
            return t.sec as f64 + t.nsec as f64 * 1e-9;
        }
    }
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Times one op on the CPU clock.
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> Self {
        Self(cpu_s())
    }

    pub fn ns(&self) -> u32 {
        ((cpu_s() - self.0) * 1e9).clamp(0.0, u32::MAX as f64) as u32
    }
}

/// The host's pace at one moment: CPU seconds per echo round trip.
#[derive(Clone, Copy)]
pub struct Sample(f64);

/// How many times slower than the reference host the host ran between
/// two samples.
pub fn host(before: Sample, after: Sample) -> f64 {
    (before.0 + after.0) / 2.0 / REF_ECHO_S
}

/// The echo peer and the connection to it.
pub struct Pace {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
    reply: Vec<u8>,
    want: u64,
}

impl Pace {
    pub fn start() -> R<Self> {
        let es = |e: std::io::Error| format!("pace echo: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(es)?;
        let addr = listener.local_addr().map_err(es)?;
        let payload: Vec<u8> = (0..REPLY).map(|i| (i * 31 % 251) as u8).collect();
        let want = checksum(&payload);
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut request = [0u8; REQUEST];
            while peer.read_exact(&mut request).is_ok() && peer.write_all(&payload).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(es)?;
        stream.set_nodelay(true).map_err(es)?;
        let mut pace = Self { stream, echo: Some(echo), reply: vec![0; REPLY], want };
        // The first round trips open the connection's buffers.
        pace.sample()?;
        Ok(pace)
    }

    /// The host's pace now.
    pub fn sample(&mut self) -> R<Sample> {
        let es = |e: std::io::Error| format!("pace echo: {e}");
        let t = cpu_s();
        for _ in 0..ROUND_TRIPS {
            self.stream.write_all(&[1u8; REQUEST]).map_err(es)?;
            self.stream.read_exact(&mut self.reply).map_err(es)?;
            if checksum(&self.reply) != self.want {
                return Err("pace echo: wrong bytes".into());
            }
        }
        Ok(Sample((cpu_s() - t) / ROUND_TRIPS as f64))
    }

    /// Run `f` between two samples. Returns its result, the CPU seconds
    /// it took, and how many times slower than the reference host the
    /// host ran around it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> R<(T, f64, f64)> {
        let before = self.sample()?;
        let t = cpu_s();
        let out = f();
        let seconds = cpu_s() - t;
        Ok((out, seconds, host(before, self.sample()?)))
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
