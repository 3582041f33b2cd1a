//! 8 KB slotted pages — the fundamental unit of POSTGRES storage.
//!
//! The paper's f-chunk implementation relies on two page-layout facts
//! (§6.3): pages are 8 KB, and "POSTGRES does not break tuples across
//! pages". Both are enforced here. A page holds a fixed 24-byte header, an
//! array of 4-byte line pointers growing down from the header, and tuple
//! bodies growing up from the end of the page (or from the start of the
//! optional *special space* reserved at the end, used by the B-tree for
//! its node metadata).
//!
//! [`checksum`] is the workspace's one checksum (CRC-32): the log and
//! the WORM platter call it for their records, and a page header has a
//! field for it ([`Page::set_checksum`]).

#![deny(unsafe_code)]

pub mod checksum;
pub mod page;
pub mod tid;

pub use page::{ItemFlag, Page, PageInitError, PAGE_HEADER_SIZE};
pub use tid::Tid;

/// Size of every page in the system, in bytes.
pub const PAGE_SIZE: usize = 8192;

/// A raw page buffer.
pub type PageBuf = [u8; PAGE_SIZE];

/// Allocate a zeroed page buffer on the heap.
///
/// Pages are 8 KB; keeping them boxed avoids blowing stack frames in deep
/// call chains and makes moves cheap.
pub fn alloc_page() -> Box<PageBuf> {
    // Zeroed allocation without a large stack temporary.
    vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("exact length")
}
