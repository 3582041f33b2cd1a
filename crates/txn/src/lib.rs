//! Transactions, MVCC visibility, and time travel.
//!
//! POSTGRES's storage system never overwrites committed data: a tuple
//! carries the transaction that created it (`tmin`) and, once superseded or
//! deleted, the transaction that ended it (`tmax`). Deciding what a reader
//! sees is purely a function of those two stamps plus the reader's
//! *visibility* — either a conventional MVCC snapshot or, for **time
//! travel** (§6.3: "since POSTGRES does not overwrite data, time travel is
//! automatically available"), a historical commit timestamp.
//!
//! This crate provides the transaction identifier space, the outcome
//! table (commit timestamp per transaction), RAII transactions, MVCC
//! snapshots, and the single visibility routine the heap uses for both
//! current reads and as-of reads. It does no I/O: the storage
//! environment makes outcomes durable through a [`DurabilityHook`].

pub mod horizon;
pub mod manager;
pub mod visibility;

pub use manager::{CommitTs, DurabilityHook, Txn, TxnManager, TxnStatus};
pub use visibility::{tuple_visible, Visibility};

/// A transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xid(pub u32);

impl Xid {
    /// The invalid XID: a tuple whose `tmax` is INVALID has not been
    /// deleted or superseded.
    pub const INVALID: Xid = Xid(0);
    /// The bootstrap transaction: always committed, at commit timestamp 0.
    /// Catalog bootstrap rows are stamped with it.
    pub const BOOTSTRAP: Xid = Xid(1);
    /// First XID handed to a user transaction.
    pub const FIRST_NORMAL: Xid = Xid(2);

    /// Whether this is a real transaction id.
    pub fn is_valid(self) -> bool {
        self != Xid::INVALID
    }
}

impl std::fmt::Display for Xid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xid:{}", self.0)
    }
}
