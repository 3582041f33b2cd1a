//! Heap tuple header: the MVCC stamps carried by every stored tuple.

use pglo_txn::Xid;

/// Size of the fixed tuple header preceding every payload.
pub const TUPLE_HEADER_SIZE: usize = 12;

/// The per-tuple MVCC header.
///
/// `xmin` is the inserting transaction; `xmax` the deleting/superseding one
/// ([`Xid::INVALID`] while the tuple is live). Stamping `xmax` is the *only*
/// in-place mutation the no-overwrite discipline allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleHeader {
    /// The xmin.
    pub xmin: Xid,
    /// The xmax.
    pub xmax: Xid,
    /// The flags.
    pub flags: u16,
}

impl TupleHeader {
    /// Header for a freshly inserted tuple.
    pub fn new(xmin: Xid) -> Self {
        Self { xmin, xmax: Xid::INVALID, flags: 0 }
    }

    /// Encode into the first [`TUPLE_HEADER_SIZE`] bytes of `out`.
    pub fn encode_into(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.xmin.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.xmax.0.to_le_bytes());
        out[8..10].copy_from_slice(&self.flags.to_le_bytes());
        out[10..12].fill(0);
    }

    /// Decode from a stored tuple image; `None` if it is shorter than
    /// [`TUPLE_HEADER_SIZE`].
    pub fn decode(data: &[u8]) -> Option<Self> {
        let &[x0, x1, x2, x3, m0, m1, m2, m3, f0, f1, ..] =
            data.first_chunk::<TUPLE_HEADER_SIZE>()?;
        Some(Self {
            xmin: Xid(u32::from_le_bytes([x0, x1, x2, x3])),
            xmax: Xid(u32::from_le_bytes([m0, m1, m2, m3])),
            flags: u16::from_le_bytes([f0, f1]),
        })
    }

    /// Stamp a new `xmax` directly into a stored tuple image.
    pub fn stamp_xmax(data: &mut [u8], xmax: Xid) {
        data[4..8].copy_from_slice(&xmax.0.to_le_bytes());
    }
}

/// The payload portion of a stored tuple image.
pub fn tuple_payload(data: &[u8]) -> &[u8] {
    &data[TUPLE_HEADER_SIZE..]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full tuple image: header followed by payload.
    fn materialize(h: &TupleHeader, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; TUPLE_HEADER_SIZE];
        h.encode_into(&mut out);
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = TupleHeader { xmin: Xid(7), xmax: Xid(9), flags: 3 };
        let img = materialize(&h, b"payload");
        assert_eq!(TupleHeader::decode(&img).unwrap(), h);
        assert_eq!(tuple_payload(&img), b"payload");
        assert_eq!(img.len(), TUPLE_HEADER_SIZE + 7);
    }

    #[test]
    fn stamp_xmax_in_place() {
        let h = TupleHeader::new(Xid(5));
        let mut img = materialize(&h, b"x");
        assert_eq!(TupleHeader::decode(&img).unwrap().xmax, Xid::INVALID);
        TupleHeader::stamp_xmax(&mut img, Xid(11));
        let h2 = TupleHeader::decode(&img).unwrap();
        assert_eq!(h2.xmax, Xid(11));
        assert_eq!(h2.xmin, Xid(5), "xmin untouched");
        assert_eq!(tuple_payload(&img), b"x", "payload untouched");
    }
}
