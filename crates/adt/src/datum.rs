//! Runtime values and their serialized row form.

use crate::{AdtError, Result};
use pglo_core::LoId;

/// A rectangle — the small built-in ADT from the paper's §5 example,
/// `"0,0,20,20"::rect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// The x0.
    pub x0: i32,
    /// The y0.
    pub y0: i32,
    /// The x1.
    pub x1: i32,
    /// The y1.
    pub y1: i32,
}

impl Rect {
    /// Parse the `"x0,y0,x1,y1"` text form.
    pub fn parse(text: &str) -> Result<Rect> {
        let parts: Vec<&str> = text.split(',').map(str::trim).collect();
        if parts.len() != 4 {
            return Err(AdtError::BadInput {
                type_name: "rect".into(),
                text: text.into(),
                reason: "expected four comma-separated integers".into(),
            });
        }
        let mut vals = [0i32; 4];
        for (v, p) in vals.iter_mut().zip(&parts) {
            *v = p.parse().map_err(|_| AdtError::BadInput {
                type_name: "rect".into(),
                text: text.into(),
                reason: format!("\"{p}\" is not an integer"),
            })?;
        }
        Ok(Rect { x0: vals[0], y0: vals[1], x1: vals[2], y1: vals[3] })
    }

    /// Width (clamped at zero for inverted rectangles).
    pub fn width(&self) -> i32 {
        (self.x1 - self.x0).max(0)
    }

    /// Height (clamped at zero for inverted rectangles).
    pub fn height(&self) -> i32 {
        (self.y1 - self.y0).max(0)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{},{},{},{}", self.x0, self.y0, self.x1, self.y1)
    }
}

/// A reference to a large ADT value: the object's name plus its type.
/// Large values move through the executor by reference (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoRef {
    /// The id.
    pub id: LoId,
    /// The type name.
    pub type_name: String,
}

/// Type tags for dispatch and row encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeTag {
    /// Null.
    Null = 0,
    /// Bool.
    Bool = 1,
    /// Int4.
    Int4 = 2,
    /// Int8.
    Int8 = 3,
    /// Float8.
    Float8 = 4,
    /// Text.
    Text = 5,
    /// Rect.
    Rect = 6,
    /// Large.
    Large = 7,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Null.
    Null,
    /// Bool.
    Bool(bool),
    /// Int4.
    Int4(i32),
    /// Int8.
    Int8(i64),
    /// Float8.
    Float8(f64),
    /// Text.
    Text(String),
    /// Rect.
    Rect(Rect),
    /// Large.
    Large(LoRef),
}

impl Datum {
    /// The value's type tag.
    pub fn tag(&self) -> TypeTag {
        match self {
            Datum::Null => TypeTag::Null,
            Datum::Bool(_) => TypeTag::Bool,
            Datum::Int4(_) => TypeTag::Int4,
            Datum::Int8(_) => TypeTag::Int8,
            Datum::Float8(_) => TypeTag::Float8,
            Datum::Text(_) => TypeTag::Text,
            Datum::Rect(_) => TypeTag::Rect,
            Datum::Large(_) => TypeTag::Large,
        }
    }

    /// Human-readable type name.
    pub fn type_name(&self) -> String {
        match self {
            Datum::Large(r) => r.type_name.clone(),
            Datum::Null => "null".into(),
            Datum::Bool(_) => "bool".into(),
            Datum::Int4(_) => "int4".into(),
            Datum::Int8(_) => "int8".into(),
            Datum::Float8(_) => "float8".into(),
            Datum::Text(_) => "text".into(),
            Datum::Rect(_) => "rect".into(),
        }
    }

    /// Append the serialized form to `out` (row storage).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag() as u8);
        match self {
            Datum::Null => {}
            Datum::Bool(b) => out.push(*b as u8),
            Datum::Int4(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Int8(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Float8(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Rect(r) => {
                for v in [r.x0, r.y0, r.x1, r.y1] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Datum::Large(l) => {
                out.extend_from_slice(&l.id.0.to_le_bytes());
                out.extend_from_slice(&(l.type_name.len() as u32).to_le_bytes());
                out.extend_from_slice(l.type_name.as_bytes());
            }
        }
    }

    /// Decode one datum from `data`, returning it and the bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(Datum, usize)> {
        let (&tag, body) = data.split_first().ok_or_else(truncated)?;
        Ok(match tag {
            0 => (Datum::Null, 1),
            1 => (Datum::Bool(need::<1>(body, 0)? != [0]), 2),
            2 => (Datum::Int4(i32::from_le_bytes(need(body, 0)?)), 5),
            3 => (Datum::Int8(i64::from_le_bytes(need(body, 0)?)), 9),
            4 => (Datum::Float8(f64::from_le_bytes(need(body, 0)?)), 9),
            5 => {
                let len = u32::from_le_bytes(need(body, 0)?) as usize;
                let s = text(body, 4, len)?;
                (Datum::Text(s.to_string()), 5 + len)
            }
            6 => {
                let g = |i: usize| need(body, i * 4).map(i32::from_le_bytes);
                (Datum::Rect(Rect { x0: g(0)?, y0: g(1)?, x1: g(2)?, y1: g(3)? }), 17)
            }
            7 => {
                let id = u64::from_le_bytes(need(body, 0)?);
                let len = u32::from_le_bytes(need(body, 8)?) as usize;
                let tname = text(body, 12, len)?;
                (Datum::Large(LoRef { id: LoId(id), type_name: tname.to_string() }), 13 + len)
            }
            _ => return Err(truncated()),
        })
    }

    /// Coerce to `i64` where sensible.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::Int4(v) => Some(*v as i64),
            Datum::Int8(v) => Some(*v),
            _ => None,
        }
    }

    /// Coerce to `f64` where sensible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int4(v) => Some(*v as f64),
            Datum::Int8(v) => Some(*v as f64),
            Datum::Float8(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a Text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a Bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The large-object reference, if this is a Large value.
    pub fn as_large(&self) -> Option<&LoRef> {
        match self {
            Datum::Large(l) => Some(l),
            _ => None,
        }
    }
}

fn truncated() -> AdtError {
    AdtError::BadInput {
        type_name: "row".into(),
        text: String::new(),
        reason: "truncated datum".into(),
    }
}

/// The `N` bytes of a datum body at `at`, or a truncated-datum error.
fn need<const N: usize>(body: &[u8], at: usize) -> Result<[u8; N]> {
    body.get(at..).and_then(<[u8]>::first_chunk).copied().ok_or_else(truncated)
}

/// The `len` UTF-8 bytes of a datum body at `at`.
fn text(body: &[u8], at: usize, len: usize) -> Result<&str> {
    let bytes = body.get(at..).and_then(|b| b.get(..len)).ok_or_else(truncated)?;
    std::str::from_utf8(bytes).map_err(|_| truncated())
}

/// Encode a row (sequence of datums).
pub fn encode_row(row: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * row.len());
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for d in row {
        d.encode_into(&mut out);
    }
    out
}

/// Decode a row.
pub fn decode_row(data: &[u8]) -> Result<Vec<Datum>> {
    let Some(header) = data.first_chunk::<2>() else {
        return Err(AdtError::BadInput {
            type_name: "row".into(),
            text: String::new(),
            reason: "truncated row header".into(),
        });
    };
    let n = u16::from_le_bytes(*header) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        let (d, used) = Datum::decode(&data[pos..])?;
        out.push(d);
        pos += used;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_parse_and_display() {
        let r = Rect::parse("0, 0, 20,20").unwrap();
        assert_eq!(r, Rect { x0: 0, y0: 0, x1: 20, y1: 20 });
        assert_eq!((r.width(), r.height()), (20, 20));
        assert_eq!(r.to_string(), "0,0,20,20");
        assert!(Rect::parse("1,2,3").is_err());
        assert!(Rect::parse("a,b,c,d").is_err());
    }

    #[test]
    fn row_roundtrip_all_types() {
        let row = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int4(-7),
            Datum::Int8(1 << 40),
            Datum::Float8(2.5),
            Datum::Text("héllo".into()),
            Datum::Rect(Rect { x0: 1, y0: 2, x1: 3, y1: 4 }),
            Datum::Large(LoRef { id: LoId(99), type_name: "image".into() }),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn truncated_rows_rejected() {
        let row = vec![Datum::Text("abcdef".into())];
        let bytes = encode_row(&row);
        for cut in 1..bytes.len() {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn coercions() {
        assert_eq!(Datum::Int4(5).as_i64(), Some(5));
        assert_eq!(Datum::Int8(5).as_f64(), Some(5.0));
        assert_eq!(Datum::Text("x".into()).as_i64(), None);
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert!(Datum::Large(LoRef { id: LoId(1), type_name: "t".into() }).as_large().is_some());
    }

    #[test]
    fn empty_row() {
        assert_eq!(decode_row(&encode_row(&[])).unwrap(), Vec::<Datum>::new());
    }
}
