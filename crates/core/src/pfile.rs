//! §6.2 — POSTGRES file as an ADT.
//!
//! "Because POSTGRES is allocating the file in which the bytes are stored,
//! the user must call the function `newfilename` in order to have POSTGRES
//! perform the allocation. … The only advantage of this implementation
//! over the previous one is that it allows the UNIX file to be updatable by
//! a single user."
//!
//! The single-user-updatable property is enforced here: the store checks
//! the opener's [`crate::UserId`] against the object's owner before handing
//! out a writable backend. The data path is otherwise identical to u-file.

use crate::handle::LoBackend;
use crate::Result;
use pglo_smgr::NativeFile;
use pglo_txn::Txn;

/// Backend over a DBMS-owned host file. Ownership was verified at open
/// time by [`crate::LoStore`].
pub struct PFileBackend {
    file: NativeFile,
}

impl PFileBackend {
    /// A backend over the DBMS-owned file.
    pub fn new(file: NativeFile) -> Self {
        Self { file }
    }
}

impl LoBackend for PFileBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let n = self.file.read_at(offset, buf)?;
        obs::counter!("lo.pfile.read.bytes").add(n as u64);
        Ok(n)
    }

    fn write_at(&mut self, _txn: &Txn, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_at(offset, data)?;
        obs::counter!("lo.pfile.write.bytes").add(data.len() as u64);
        Ok(())
    }

    fn size(&mut self) -> Result<u64> {
        Ok(self.file.len()?)
    }

    fn flush(&mut self, _txn: Option<&Txn>) -> Result<()> {
        // Run the simulated OS syncer: dirty cached blocks reach the device.
        self.file.sync();
        Ok(())
    }
}
