//! lobd as users get it, in this process: `LobdService::open` (4096-frame
//! = 32 MiB pool, 2 ms background writer, `durable_sync = false`) behind
//! `spawn` with `ServerConfig::default()` (2 reactors, 16 executors),
//! reached over real TCP on a port the OS picks.

use crate::backend::{Conn, Tcp, Wire, R};
use pglo_server::{spawn, Client, LobdService, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub struct Lobd {
    pub dir: PathBuf,
    pub service: Arc<LobdService>,
    handle: ServerHandle,
}

/// What the output states about the server under test.
pub struct Fingerprint {
    pub pool_frames: usize,
    pub durable_sync: bool,
    pub obs: bool,
}

impl Lobd {
    /// Open (or reopen) the database under `dir` and start serving it.
    pub fn start(dir: &Path) -> R<Self> {
        let service = LobdService::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let handle = spawn(Arc::clone(&service), ServerConfig::default())
            .map_err(|e| format!("spawn lobd: {e}"))?;
        Ok(Self { dir: dir.to_path_buf(), service, handle })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.local_addr()
    }

    pub fn connect(&self, client: usize) -> R<Conn<Tcp>> {
        let c = Client::connect(self.handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn::new(Wire(c), client))
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let env = self.service.env();
        Fingerprint {
            pool_frames: env.pool().capacity(),
            durable_sync: env.wal().options().durable_sync,
            obs: obs::active(),
        }
    }

    /// Shut down cleanly: drain sessions, stop the background threads,
    /// write every dirty page home and take a final checkpoint. Every
    /// connection must be dropped first. Returns the bytes left under the
    /// data directory outside `wal/` — the numerator of `space_amp`.
    pub fn stop(self) -> R<u64> {
        let Self { dir, service, handle } = self;
        handle.shutdown();
        drop(handle.join());
        let env = service.env();
        env.stop_bgwriter();
        env.stop_checkpointer();
        env.pool().flush_all().map_err(|e| format!("final flush: {e}"))?;
        env.checkpoint().map_err(|e| format!("final checkpoint: {e}"))?;
        let left = Arc::strong_count(&service);
        if left != 1 {
            return Err(format!("lobd still referenced {left} times at shutdown"));
        }
        drop(service);
        stored_bytes(&dir)
    }
}

/// Bytes of every file under `dir`, `wal/` excluded: the log is recycled
/// working space, the rest is what the objects cost to keep.
pub fn stored_bytes(dir: &Path) -> R<u64> {
    fn walk(dir: &Path, top: bool) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                if !(top && entry.file_name() == "wal") {
                    total += walk(&entry.path(), false)?;
                }
            } else {
                total += meta.len();
            }
        }
        Ok(total)
    }
    walk(dir, true).map_err(|e| format!("measure {}: {e}", dir.display()))
}

/// Peak resident set of this process (lobd runs in it) in MiB: `VmHWM`.
pub fn rss_peak_mib() -> R<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
