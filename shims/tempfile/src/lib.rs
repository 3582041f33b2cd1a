//! Offline shim for the `tempfile` crate (see DESIGN.md, "dependency
//! policy"): the subset the workspace uses — `tempdir()` / [`TempDir`] —
//! over `std::fs`, with recursive removal on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory deleted (recursively) when the handle drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consume the handle without deleting the directory.
    pub fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }

    /// Delete now, surfacing errors (drop ignores them).
    pub fn close(mut self) -> std::io::Result<()> {
        std::fs::remove_dir_all(std::mem::take(&mut self.path))
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        self.path()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // An empty path was handed out by `keep` or `close`.
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Create a fresh directory under the system temp dir.
pub fn tempdir() -> std::io::Result<TempDir> {
    tempdir_in(std::env::temp_dir())
}

/// Create a fresh directory under `base`.
pub fn tempdir_in(base: impl AsRef<Path>) -> std::io::Result<TempDir> {
    let base = base.as_ref();
    let pid = std::process::id();
    // Wall-clock nanos + a process-wide counter make collisions with stale
    // directories from earlier runs practically impossible; create_dir's
    // exclusivity turns any remaining collision into a retry.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    for _ in 0..1024 {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!(".pglo-tmp-{pid}-{nanos}-{n}"));
        match std::fs::create_dir_all(base).and_then(|()| std::fs::create_dir(&path)) {
            Ok(()) => return Ok(TempDir { path }),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::other("tempdir: exhausted name candidates"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let keep_path;
        {
            let d = tempdir().unwrap();
            keep_path = d.path().to_path_buf();
            assert!(keep_path.is_dir());
            std::fs::write(d.path().join("f"), b"x").unwrap();
        }
        assert!(!keep_path.exists());
    }

    #[test]
    fn unique_names() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
    }
}
