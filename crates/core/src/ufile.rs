//! §6.1 — user file as an ADT.
//!
//! "The simplest way to support large ADTs is with user files. … This
//! implementation has the advantage of being simple, and gives the user
//! complete control over object placement. However … access controls are
//! difficult to manage … the database cannot guarantee transaction
//! semantics … no support for automatic management of versions."
//!
//! The backend is a thin pass-through to [`NativeFile`]: no buffer pool, no
//! tuple structure, no index, no transaction coupling — exactly the
//! baseline column of Figure 2.

use crate::handle::LoBackend;
use crate::Result;
use pglo_smgr::NativeFile;
use pglo_txn::Txn;

/// Backend over a user-owned host file.
pub struct UFileBackend {
    file: NativeFile,
}

impl UFileBackend {
    /// A backend over the user's file.
    pub fn new(file: NativeFile) -> Self {
        Self { file }
    }
}

impl LoBackend for UFileBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let n = self.file.read_at(offset, buf)?;
        obs::counter!("lo.ufile.read.bytes").add(n as u64);
        Ok(n)
    }

    fn write_at(&mut self, _txn: &Txn, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_at(offset, data)?;
        obs::counter!("lo.ufile.write.bytes").add(data.len() as u64);
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
