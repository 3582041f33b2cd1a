//! The slotted-page implementation.
//!
//! Layout:
//!
//! ```text
//! +--------------------+ 0
//! | header (24 bytes)  |
//! +--------------------+ 24
//! | line pointers ...  |  grows down (toward higher offsets)
//! +--------------------+ lower
//! | free space         |
//! +--------------------+ upper
//! | tuple bodies ...   |  grows up (allocated from `special` backwards)
//! +--------------------+ special
//! | special space      |  access-method private area (B-tree node header)
//! +--------------------+ PAGE_SIZE
//! ```
//!
//! Tuples never span pages; [`Page::max_item_size`] is the hard limit the
//! heap enforces, which is what gives the f-chunk implementation its
//! "one >½-page tuple per page" behaviour under 30 % compression (§9.1).

use crate::checksum::page_checksum;
use crate::PAGE_SIZE;

/// Bytes of fixed page header.
pub const PAGE_HEADER_SIZE: usize = 24;
/// Bytes per line pointer.
pub const LINE_POINTER_SIZE: usize = 4;

const MAGIC: u16 = 0x5047; // "PG"
const VERSION: u16 = 1;

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 2;
const OFF_LOWER: usize = 4;
const OFF_UPPER: usize = 6;
const OFF_SPECIAL: usize = 8;
const OFF_CHECKSUM: usize = 12;
const OFF_GARBAGE: usize = 16; // u16: bytes of tuple space held by removed items
                               // 10..12 and 18..24 reserved

/// Status of a line pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemFlag {
    /// Slot is free; may be reused by a later insertion.
    Unused = 0,
    /// Slot points at a live tuple.
    Normal = 1,
    /// Slot points at a tuple known dead to all snapshots (vacuum candidate).
    Dead = 2,
}

/// A view over an 8 KB page buffer.
///
/// `B = &[u8]` or `&PageBuf` gives a read-only view; `B = &mut [u8]` /
/// `&mut PageBuf` additionally enables the mutating API.
pub struct Page<B> {
    buf: B,
}

impl<B: AsRef<[u8]>> Page<B> {
    /// Wrap a buffer. Panics if the buffer is not exactly [`PAGE_SIZE`]
    /// bytes — pages are a fixed size by construction everywhere.
    pub fn new(buf: B) -> Self {
        assert_eq!(buf.as_ref().len(), PAGE_SIZE, "page buffers are {PAGE_SIZE} bytes");
        Self { buf }
    }

    fn b(&self) -> &[u8] {
        self.buf.as_ref()
    }

    fn get_u16(&self, off: usize) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.b()[off..off + 2]);
        u16::from_le_bytes(b)
    }

    fn get_u32(&self, off: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.b()[off..off + 4]);
        u32::from_le_bytes(b)
    }

    /// Offset of the end of the line-pointer array.
    pub fn lower(&self) -> usize {
        self.get_u16(OFF_LOWER) as usize
    }

    /// Offset of the start of allocated tuple space.
    pub fn upper(&self) -> usize {
        self.get_u16(OFF_UPPER) as usize
    }

    /// Offset of the special space.
    pub fn special_offset(&self) -> usize {
        self.get_u16(OFF_SPECIAL) as usize
    }

    /// The access-method private area at the end of the page.
    pub fn special(&self) -> &[u8] {
        &self.b()[self.special_offset()..]
    }

    /// Number of line pointers (some may be `Unused`). Uninitialized or
    /// damaged pages (lower below the header) read as empty rather than
    /// panicking.
    pub fn item_count(&self) -> usize {
        self.lower().saturating_sub(PAGE_HEADER_SIZE) / LINE_POINTER_SIZE
    }

    /// Free space available for a new item *including* its line pointer,
    /// ignoring reclaimable garbage (see [`Page::reclaimable`]).
    pub fn free_space(&self) -> usize {
        self.upper().saturating_sub(self.lower())
    }

    /// Bytes of tuple space held by removed items, reclaimable by
    /// [`Page::compact`].
    pub fn reclaimable(&self) -> usize {
        self.get_u16(OFF_GARBAGE) as usize
    }

    fn line_pointer(&self, slot: u16) -> Option<(usize, usize, ItemFlag)> {
        if slot as usize >= self.item_count() {
            return None;
        }
        let off = PAGE_HEADER_SIZE + slot as usize * LINE_POINTER_SIZE;
        let pos = self.get_u16(off) as usize;
        let lenflag = self.get_u16(off + 2);
        let flag = match lenflag >> 14 {
            0 => ItemFlag::Unused,
            1 => ItemFlag::Normal,
            _ => ItemFlag::Dead,
        };
        let len = (lenflag & 0x3FFF) as usize;
        Some((pos, len, flag))
    }

    /// The flag of slot `slot`, if it exists.
    pub fn item_flag(&self, slot: u16) -> Option<ItemFlag> {
        self.line_pointer(slot).map(|(_, _, f)| f)
    }

    /// The bytes of item `slot` (Normal or Dead items; `None` for Unused or
    /// out-of-range slots).
    pub fn item(&self, slot: u16) -> Option<&[u8]> {
        let (pos, len, flag) = self.line_pointer(slot)?;
        if flag == ItemFlag::Unused {
            return None;
        }
        Some(&self.b()[pos..pos + len])
    }

    /// Iterate `(slot, flag, bytes)` over non-Unused items.
    pub fn items(&self) -> impl Iterator<Item = (u16, ItemFlag, &[u8])> + '_ {
        (0..self.item_count() as u16).filter_map(move |slot| {
            let (pos, len, flag) = self.line_pointer(slot)?;
            if flag == ItemFlag::Unused {
                None
            } else {
                Some((slot, flag, &self.b()[pos..pos + len]))
            }
        })
    }

    /// Verify the stored checksum. Pages with a zero checksum field are
    /// treated as "checksum never set" and pass.
    // LINT: allow(R14, the page checksum format; no pool path verifies it yet, the page tests do)
    pub fn verify_checksum(&self) -> bool {
        let stored = self.get_u32(OFF_CHECKSUM);
        stored == 0 || stored == self.checksum_to_store()
    }

    /// The page's checksum as the header field holds it: 0 there means
    /// "never set", so a page whose checksum computes to 0 stores 1.
    fn checksum_to_store(&self) -> u32 {
        page_checksum(self.b(), OFF_CHECKSUM).max(1)
    }

    /// Largest item that fits on a fresh page with `special` bytes of
    /// special space (accounts for the header and one line pointer).
    pub fn max_item_size(special: usize) -> usize {
        PAGE_SIZE - PAGE_HEADER_SIZE - LINE_POINTER_SIZE - special
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> Page<B> {
    fn m(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.m()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn set_u32(&mut self, off: usize, v: u32) {
        self.m()[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Initialize an empty page with `SPECIAL` bytes of special space. A
    /// special space that leaves no room for the header fails to compile.
    pub fn init<const SPECIAL: usize>(&mut self) {
        const { assert!(SPECIAL <= PAGE_SIZE - PAGE_HEADER_SIZE, "special space too large") };
        self.m().fill(0);
        self.set_u16(OFF_MAGIC, MAGIC);
        self.set_u16(OFF_VERSION, VERSION);
        self.set_u16(OFF_LOWER, PAGE_HEADER_SIZE as u16);
        let special = (PAGE_SIZE - SPECIAL) as u16;
        self.set_u16(OFF_UPPER, special);
        self.set_u16(OFF_SPECIAL, special);
    }

    /// Mutable access to the special space.
    pub fn special_mut(&mut self) -> &mut [u8] {
        let off = self.special_offset();
        &mut self.m()[off..]
    }

    fn set_line_pointer(&mut self, slot: u16, pos: usize, len: usize, flag: ItemFlag) {
        let off = PAGE_HEADER_SIZE + slot as usize * LINE_POINTER_SIZE;
        self.set_u16(off, pos as u16);
        let lenflag = ((flag as u16) << 14) | (len as u16 & 0x3FFF);
        self.set_u16(off + 2, lenflag);
    }

    /// Add the item made of `parts` laid end to end, each copied straight
    /// into the page, reusing an Unused slot if one exists, else appending
    /// a new line pointer. Returns the slot, or `None` if the page is full
    /// (caller may [`Page::compact`] and retry, or move to another page).
    pub fn add_item(&mut self, parts: &[&[u8]]) -> Option<u16> {
        let len = parts.iter().map(|p| p.len()).sum::<usize>();
        assert!(len < (1 << 14), "item length must fit in 14 bits");
        // Find a reusable slot so slot numbers stay dense after deletes.
        let reuse = (0..self.item_count() as u16)
            .find(|&s| matches!(self.item_flag(s), Some(ItemFlag::Unused)));
        let need_lp = if reuse.is_some() { 0 } else { LINE_POINTER_SIZE };
        if self.free_space() < len + need_lp {
            return None;
        }
        let new_upper = self.upper() - len;
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.item_count() as u16;
                self.set_u16(OFF_LOWER, (self.lower() + LINE_POINTER_SIZE) as u16);
                s
            }
        };
        let mut at = new_upper;
        for part in parts {
            self.m()[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        self.set_u16(OFF_UPPER, new_upper as u16);
        self.set_line_pointer(slot, new_upper, len, ItemFlag::Normal);
        Some(slot)
    }

    /// Insert an item *at* line-pointer index `idx`, shifting later line
    /// pointers right. Used by the B-tree to keep items key-ordered.
    pub fn insert_item_at(&mut self, idx: u16, data: &[u8]) -> bool {
        assert!(data.len() < (1 << 14));
        let count = self.item_count();
        assert!(idx as usize <= count, "insert index out of range");
        if self.free_space() < data.len() + LINE_POINTER_SIZE {
            return false;
        }
        // Shift line pointers [idx..count) right by one.
        let start = PAGE_HEADER_SIZE + idx as usize * LINE_POINTER_SIZE;
        let end = PAGE_HEADER_SIZE + count * LINE_POINTER_SIZE;
        self.m().copy_within(start..end, start + LINE_POINTER_SIZE);
        self.set_u16(OFF_LOWER, (end + LINE_POINTER_SIZE) as u16);
        let new_upper = self.upper() - data.len();
        self.m()[new_upper..new_upper + data.len()].copy_from_slice(data);
        self.set_u16(OFF_UPPER, new_upper as u16);
        self.set_line_pointer(idx, new_upper, data.len(), ItemFlag::Normal);
        true
    }

    /// Remove the item at line-pointer index `idx`, shifting later line
    /// pointers left (B-tree use). The tuple bytes become garbage until
    /// [`Page::compact`].
    pub fn remove_item_at(&mut self, idx: u16) {
        let count = self.item_count();
        assert!((idx as usize) < count, "remove index out of range");
        if let Some((_, len, flag)) = self.line_pointer(idx) {
            if flag != ItemFlag::Unused {
                let g = self.reclaimable() + len;
                self.set_u16(OFF_GARBAGE, g as u16);
            }
        }
        let start = PAGE_HEADER_SIZE + (idx as usize + 1) * LINE_POINTER_SIZE;
        let end = PAGE_HEADER_SIZE + count * LINE_POINTER_SIZE;
        self.m().copy_within(start..end, start - LINE_POINTER_SIZE);
        self.set_u16(OFF_LOWER, (end - LINE_POINTER_SIZE) as u16);
    }

    /// Mark a slot Unused (heap delete after vacuum determines it is dead to
    /// everyone). The bytes become reclaimable garbage.
    pub fn delete_item(&mut self, slot: u16) {
        if let Some((pos, len, flag)) = self.line_pointer(slot) {
            if flag != ItemFlag::Unused {
                let g = self.reclaimable() + len;
                self.set_u16(OFF_GARBAGE, g as u16);
                self.set_line_pointer(slot, pos, 0, ItemFlag::Unused);
            }
        }
    }

    /// Mutable access to an item's bytes (used by the heap to stamp `xmax`
    /// in a tuple header — the only in-place modification the no-overwrite
    /// discipline permits).
    pub fn item_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        let (pos, len, flag) = self.line_pointer(slot)?;
        if flag == ItemFlag::Unused {
            return None;
        }
        Some(&mut self.m()[pos..pos + len])
    }

    /// Rewrite the tuple space dropping Unused items' bytes, preserving slot
    /// numbers of live items. Returns bytes reclaimed.
    pub fn compact(&mut self) -> usize {
        let special = self.special_offset();
        let count = self.item_count();
        // Collect live items (slot, bytes) — copy out, then rewrite.
        let mut live: Vec<(u16, ItemFlag, Vec<u8>)> = Vec::with_capacity(count);
        for slot in 0..count as u16 {
            if let Some((pos, len, flag)) = self.line_pointer(slot) {
                if flag != ItemFlag::Unused {
                    live.push((slot, flag, self.b()[pos..pos + len].to_vec()));
                }
            }
        }
        let before = self.upper();
        let mut upper = special;
        for (slot, flag, bytes) in &live {
            upper -= bytes.len();
            self.m()[upper..upper + bytes.len()].copy_from_slice(bytes);
            self.set_line_pointer(*slot, upper, bytes.len(), *flag);
        }
        self.set_u16(OFF_UPPER, upper as u16);
        self.set_u16(OFF_GARBAGE, 0);
        upper - before
    }

    /// Compute and store the checksum. Call before writing the page out.
    // LINT: allow(R14, the page checksum format; no pool path stamps it yet, the page tests do)
    pub fn set_checksum(&mut self) {
        let sum = self.checksum_to_store();
        self.set_u32(OFF_CHECKSUM, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_page;

    fn fresh<const SPECIAL: usize>() -> Box<crate::PageBuf> {
        let mut buf = alloc_page();
        Page::new(buf.as_mut_slice()).init::<SPECIAL>();
        buf
    }

    trait AsMutSlice {
        fn as_mut_slice(&mut self) -> &mut [u8];
    }
    impl AsMutSlice for Box<crate::PageBuf> {
        fn as_mut_slice(&mut self) -> &mut [u8] {
            &mut self[..]
        }
    }

    #[test]
    fn init_and_empty_geometry() {
        let buf = fresh::<0>();
        let p = Page::new(&buf[..]);
        assert_eq!(p.item_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HEADER_SIZE);
        assert_eq!(p.special().len(), 0);
    }

    #[test]
    fn special_space_reserved() {
        let mut buf = fresh::<16>();
        let mut p = Page::new(buf.as_mut_slice());
        assert_eq!(p.special().len(), 16);
        p.special_mut().copy_from_slice(&[9u8; 16]);
        assert_eq!(p.special(), &[9u8; 16]);
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HEADER_SIZE - 16);
    }

    #[test]
    fn add_get_delete_roundtrip() {
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        let s0 = p.add_item(&[b"hello"]).unwrap();
        let s1 = p.add_item(&[b"world!"]).unwrap();
        assert_eq!(p.item(s0), Some(&b"hello"[..]));
        assert_eq!(p.item(s1), Some(&b"world!"[..]));
        p.delete_item(s0);
        assert_eq!(p.item(s0), None);
        assert_eq!(p.item_flag(s0), Some(ItemFlag::Unused));
        assert_eq!(p.reclaimable(), 5);
        // Slot reuse.
        let s2 = p.add_item(&[b"x"]).unwrap();
        assert_eq!(s2, s0);
    }

    #[test]
    fn one_max_item_fills_page() {
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        let max = Page::<&[u8]>::max_item_size(0);
        let data = vec![0xAB; max];
        assert!(p.add_item(&[&data]).is_some());
        assert!(p.add_item(&[b"x"]).is_none(), "page must be full");
        assert_eq!(p.item(0).unwrap().len(), max);
    }

    #[test]
    fn page_fits_two_half_size_items_not_two_big_ones() {
        // The §6.3 compression geometry: a chunk compressed to ≤ ~50 % packs
        // two per page; a 70 %-size chunk packs only one.
        let usable = PAGE_SIZE - PAGE_HEADER_SIZE;
        let half = usable / 2 - LINE_POINTER_SIZE - 16; // 16 = heap tuple header allowance
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        assert!(p.add_item(&[&vec![1; half]]).is_some());
        assert!(p.add_item(&[&vec![2; half]]).is_some());
        let mut buf2 = fresh::<0>();
        let mut p2 = Page::new(buf2.as_mut_slice());
        let seventy = usable * 7 / 10;
        assert!(p2.add_item(&[&vec![1; seventy]]).is_some());
        assert!(p2.add_item(&[&vec![2; seventy]]).is_none());
    }

    #[test]
    fn compact_reclaims_garbage() {
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        let s0 = p.add_item(&[&[1u8; 1000]]).unwrap();
        let s1 = p.add_item(&[&[2u8; 1000]]).unwrap();
        let s2 = p.add_item(&[&[3u8; 1000]]).unwrap();
        p.delete_item(s1);
        let free_before = p.free_space();
        let got = p.compact();
        assert_eq!(got, 1000);
        assert_eq!(p.free_space(), free_before + 1000);
        // Live items intact, same slots.
        assert_eq!(p.item(s0).unwrap(), &[1u8; 1000][..]);
        assert_eq!(p.item(s2).unwrap(), &[3u8; 1000][..]);
        assert_eq!(p.item(s1), None);
    }

    #[test]
    fn insert_at_keeps_order_remove_shifts() {
        let mut buf = fresh::<8>();
        let mut p = Page::new(buf.as_mut_slice());
        assert!(p.insert_item_at(0, b"bb"));
        assert!(p.insert_item_at(0, b"aa"));
        assert!(p.insert_item_at(2, b"dd"));
        assert!(p.insert_item_at(2, b"cc"));
        let items: Vec<&[u8]> = (0..4).map(|i| p.item(i).unwrap()).collect();
        assert_eq!(items, vec![&b"aa"[..], b"bb", b"cc", b"dd"]);
        p.remove_item_at(1);
        let items: Vec<&[u8]> = (0..3).map(|i| p.item(i).unwrap()).collect();
        assert_eq!(items, vec![&b"aa"[..], b"cc", b"dd"]);
        assert_eq!(p.item_count(), 3);
    }

    #[test]
    fn item_mut_edits_in_place() {
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        let s = p.add_item(&[b"abcd"]).unwrap();
        p.item_mut(s).unwrap()[0] = b'z';
        assert_eq!(p.item(s), Some(&b"zbcd"[..]));
    }

    #[test]
    fn checksum_roundtrip_detects_corruption() {
        let mut buf = fresh::<0>();
        let mut p = Page::new(buf.as_mut_slice());
        p.add_item(&[b"payload"]).unwrap();
        p.set_checksum();
        assert!(Page::new(&buf[..]).verify_checksum());
        buf[5000] ^= 0xFF;
        assert!(!Page::new(&buf[..]).verify_checksum());
    }

    #[test]
    fn checksum_that_computes_to_zero_is_stored_as_one() {
        // Force the value: run the CRC register backwards from "ends at
        // 0" over four bytes and put what that asks for in the special
        // space at the end of the page.
        let mut buf = fresh::<8>();
        let n = buf.len();
        let before = !page_checksum(&buf[..n - 4], OFF_CHECKSUM);
        let mut want = !0u32;
        for _ in 0..32 {
            want =
                if want >> 31 != 0 { (want ^ crate::checksum::POLY) << 1 | 1 } else { want << 1 };
        }
        buf[n - 4..].copy_from_slice(&(before ^ want).to_le_bytes());
        assert_eq!(page_checksum(&buf[..], OFF_CHECKSUM), 0);

        Page::new(buf.as_mut_slice()).set_checksum();
        assert_eq!(Page::new(&buf[..]).get_u32(OFF_CHECKSUM), 1, "0 would read as never set");
        assert!(Page::new(&buf[..]).verify_checksum());
        buf[5000] ^= 0xFF;
        assert!(!Page::new(&buf[..]).verify_checksum());
    }
}
