//! Model-based property test: the slotted page agrees with a simple
//! slot-map reference under random add/delete/compact sequences.

use pglo_pages::{alloc_page, ItemFlag, Page};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum PageOp {
    /// Add an item of this length filled with this byte.
    Add(u16, u8),
    /// Delete the i-th live slot (mod live count).
    Delete(u8),
    /// Compact the page.
    Compact,
}

fn ops_strategy() -> impl Strategy<Value = Vec<PageOp>> {
    let op = prop_oneof![
        4 => (1u16..2000, prop::num::u8::ANY).prop_map(|(l, b)| PageOp::Add(l, b)),
        2 => prop::num::u8::ANY.prop_map(PageOp::Delete),
        1 => Just(PageOp::Compact),
    ];
    prop::collection::vec(op, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_matches_slot_model(ops in ops_strategy()) {
        let mut buf = alloc_page();
        Page::new(&mut buf[..]).init::<0>();
        // Model: slot → Option<item bytes>.
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();

        for op in &ops {
            match op {
                PageOp::Add(len, byte) => {
                    let data = vec![*byte; *len as usize];
                    let mut page = Page::new(&mut buf[..]);
                    // Mirror the page's retry-after-compact policy.
                    let mut slot = page.add_item(&data);
                    if slot.is_none() && page.reclaimable() >= data.len() {
                        page.compact();
                        slot = page.add_item(&data);
                    }
                    match slot {
                        Some(s) => {
                            let s = s as usize;
                            if s == model.len() {
                                model.push(Some(data));
                            } else {
                                prop_assert!(model[s].is_none(), "slot reuse must hit a free slot");
                                model[s] = Some(data);
                            }
                        }
                        None => {
                            // The page refused: verify it was genuinely full
                            // for this item (free space and garbage both
                            // insufficient).
                            prop_assert!(
                                page.free_space() < data.len() + 4
                                    || model.iter().all(|m| m.is_some()),
                                "page refused {} bytes with {} free",
                                data.len(),
                                page.free_space()
                            );
                        }
                    }
                }
                PageOp::Delete(i) => {
                    let live: Vec<usize> = model
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.is_some())
                        .map(|(s, _)| s)
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    let slot = live[*i as usize % live.len()];
                    Page::new(&mut buf[..]).delete_item(slot as u16);
                    model[slot] = None;
                }
                PageOp::Compact => {
                    Page::new(&mut buf[..]).compact();
                }
            }
            // Invariant check after every operation.
            let page = Page::new(&buf[..]);
            prop_assert!(page.lower() <= page.upper());
            prop_assert!(page.upper() <= page.special_offset());
            for (slot, expect) in model.iter().enumerate() {
                match expect {
                    Some(bytes) => {
                        prop_assert_eq!(
                            page.item(slot as u16),
                            Some(bytes.as_slice()),
                            "slot {} content",
                            slot
                        );
                        prop_assert_eq!(page.item_flag(slot as u16), Some(ItemFlag::Normal));
                    }
                    None => {
                        prop_assert!(page.item(slot as u16).is_none(), "slot {} deleted", slot);
                    }
                }
            }
        }
    }

    /// Checksums survive arbitrary page states and detect corruption.
    #[test]
    fn checksum_detects_any_single_bit_flip(
        items in prop::collection::vec((1u16..500, prop::num::u8::ANY), 1..10),
        flip_at in 24usize..8192,
        flip_bit in 0u8..8,
    ) {
        let mut buf = alloc_page();
        {
            let mut page = Page::new(&mut buf[..]);
            page.init::<0>();
            for (len, b) in &items {
                let _ = page.add_item(&vec![*b; *len as usize]);
            }
            page.set_checksum();
        }
        prop_assert!(Page::new(&buf[..]).verify_checksum());
        let before = buf[flip_at];
        buf[flip_at] ^= 1 << flip_bit;
        if buf[flip_at] != before {
            prop_assert!(
                !Page::new(&buf[..]).verify_checksum(),
                "bit flip at {flip_at} went undetected"
            );
        }
    }
}
