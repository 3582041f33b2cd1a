//! Large-object metadata, persisted through the class catalog.
//!
//! Every large object is registered in the catalog under the reserved name
//! `$lo_<id>` with its implementation kind, codec, device, component
//! relation OIDs, owner, and last-flushed size in the class property bag.

use crate::{LoError, LoId, Result, UserId};
use pglo_compress::CodecKind;
use pglo_smgr::SmgrId;
use pglo_txn::Xid;
use std::collections::HashMap;
use std::path::PathBuf;

/// Which of the four implementations (§6) backs an object — the `storage =`
/// clause of `create large type` (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoKind {
    /// §6.1 — user file.
    UFile,
    /// §6.2 — POSTGRES-owned file.
    PFile,
    /// §6.3 — fixed-length chunks in a class.
    FChunk,
    /// §6.4 — variable-length compressed segments.
    VSegment,
}

impl LoKind {
    /// The persisted (and DDL) spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            LoKind::UFile => "ufile",
            LoKind::PFile => "pfile",
            LoKind::FChunk => "fchunk",
            LoKind::VSegment => "vsegment",
        }
    }

    /// Parse the spelling produced by [`LoKind::as_str`].
    pub fn parse(s: &str) -> Option<LoKind> {
        match s {
            "ufile" => Some(LoKind::UFile),
            "pfile" => Some(LoKind::PFile),
            "fchunk" => Some(LoKind::FChunk),
            "vsegment" => Some(LoKind::VSegment),
            _ => None,
        }
    }
}

/// Persistent description of one large object.
#[derive(Debug, Clone)]
pub struct LoMeta {
    /// The id.
    pub id: LoId,
    /// The kind.
    pub kind: LoKind,
    /// The codec.
    pub codec: CodecKind,
    /// Device for the chunk/segment relations.
    pub smgr: SmgrId,
    /// The owner.
    pub owner: UserId,
    /// Last flushed logical size in bytes.
    pub size: u64,
    /// The transaction that flushed `size`; invalid until a first flush.
    pub size_xid: Xid,
    /// v-segment only: last flushed byte-store length.
    pub store_size: u64,
    /// v-segment only: next segment sequence number.
    pub vseg_seq: u64,
    /// v-segment only: longest segment written so far (0: unknown).
    pub max_seg_len: u64,
    /// f-chunk: chunk heap OID. v-segment: byte-store chunk heap OID.
    pub data_rel: u64,
    /// f-chunk: seqno B-tree OID. v-segment: byte-store seqno B-tree OID.
    pub idx_rel: u64,
    /// v-segment only: segment-index heap OID.
    pub seg_rel: u64,
    /// v-segment only: segment-index B-tree OID.
    pub seg_idx_rel: u64,
    /// u-file/p-file: host path.
    pub path: Option<PathBuf>,
    /// f-chunk (and the v-segment byte store): bytes of user data per
    /// chunk. Defaults to [`crate::CHUNK_SIZE`]; the chunk-size ablation
    /// benchmark varies it.
    pub chunk_size: usize,
}

/// Catalog class name for a large object.
pub fn lo_class_name(id: LoId) -> String {
    format!("$lo_{}", id.0)
}

impl LoMeta {
    /// Serialize to catalog properties. `size_xid` and the v-segment
    /// counters are written by the backends' `flush`, never at create:
    /// absent, they read back as zero.
    pub fn to_props(&self) -> HashMap<String, String> {
        let mut p = HashMap::new();
        p.insert("kind".into(), self.kind.as_str().into());
        p.insert("codec".into(), self.codec.as_str().into());
        p.insert("smgr".into(), self.smgr.0.to_string());
        p.insert("owner".into(), self.owner.0.to_string());
        p.insert("size".into(), self.size.to_string());
        p.insert("data_rel".into(), self.data_rel.to_string());
        p.insert("idx_rel".into(), self.idx_rel.to_string());
        p.insert("seg_rel".into(), self.seg_rel.to_string());
        p.insert("seg_idx_rel".into(), self.seg_idx_rel.to_string());
        p.insert("chunk_size".into(), self.chunk_size.to_string());
        if let Some(path) = &self.path {
            p.insert("path".into(), path.display().to_string());
        }
        p
    }

    /// Deserialize from catalog properties.
    pub fn from_props(id: LoId, props: &HashMap<String, String>) -> Result<LoMeta> {
        fn get<'a>(props: &'a HashMap<String, String>, key: &str, id: LoId) -> Result<&'a str> {
            props
                .get(key)
                .map(|s| s.as_str())
                .ok_or_else(|| LoError::Meta(format!("{id}: missing property {key}")))
        }
        fn num(props: &HashMap<String, String>, key: &str, id: LoId) -> Result<u64> {
            get(props, key, id)?
                .parse()
                .map_err(|_| LoError::Meta(format!("{id}: bad numeric property {key}")))
        }
        let opt = |key, default| props.get(key).and_then(|s| s.parse().ok()).unwrap_or(default);
        let kind = LoKind::parse(get(props, "kind", id)?)
            .ok_or_else(|| LoError::Meta(format!("{id}: bad kind")))?;
        let codec = CodecKind::parse(get(props, "codec", id)?)
            .ok_or_else(|| LoError::Meta(format!("{id}: bad codec")))?;
        Ok(LoMeta {
            id,
            kind,
            codec,
            smgr: SmgrId(num(props, "smgr", id)? as u16),
            owner: UserId(num(props, "owner", id)? as u32),
            size: num(props, "size", id)?,
            size_xid: Xid(opt("size_xid", 0) as u32),
            store_size: opt("store_size", 0),
            vseg_seq: opt("vseg_seq", 0),
            max_seg_len: opt("max_seg_len", 0),
            data_rel: num(props, "data_rel", id)?,
            idx_rel: num(props, "idx_rel", id)?,
            seg_rel: num(props, "seg_rel", id)?,
            seg_idx_rel: num(props, "seg_idx_rel", id)?,
            path: props.get("path").map(PathBuf::from),
            chunk_size: opt("chunk_size", crate::CHUNK_SIZE as u64) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn props_roundtrip() {
        let meta = LoMeta {
            id: LoId(42),
            kind: LoKind::VSegment,
            codec: CodecKind::Rle,
            smgr: SmgrId(2),
            owner: UserId(7),
            size: 51_200_000,
            size_xid: Xid::INVALID,
            store_size: 0,
            vseg_seq: 0,
            max_seg_len: 0,
            data_rel: 100,
            idx_rel: 101,
            seg_rel: 102,
            seg_idx_rel: 103,
            path: None,
            chunk_size: crate::CHUNK_SIZE,
        };
        let props = meta.to_props();
        let back = LoMeta::from_props(LoId(42), &props).unwrap();
        assert_eq!(back.kind, LoKind::VSegment);
        assert_eq!(back.codec, CodecKind::Rle);
        assert_eq!(back.size, 51_200_000);
        assert_eq!(back.seg_idx_rel, 103);
        assert_eq!(back.path, None);
        // The create-time layout carries none of the flush-time keys.
        assert!(!props.contains_key("size_xid"));
        assert_eq!(back.size_xid, Xid::INVALID);
        assert_eq!((back.store_size, back.vseg_seq, back.max_seg_len), (0, 0, 0));
    }

    #[test]
    fn flush_time_props_are_typed() {
        let mut props = HashMap::new();
        for (k, v) in [
            ("kind", "vsegment"),
            ("codec", "none"),
            ("smgr", "0"),
            ("owner", "0"),
            ("size", "4096"),
            ("data_rel", "1"),
            ("idx_rel", "2"),
            ("seg_rel", "3"),
            ("seg_idx_rel", "4"),
            ("size_xid", "17"),
            ("store_size", "3000"),
            ("vseg_seq", "5"),
            ("max_seg_len", "2048"),
        ] {
            props.insert(k.to_string(), v.to_string());
        }
        let meta = LoMeta::from_props(LoId(3), &props).unwrap();
        assert_eq!(meta.size_xid, Xid(17));
        assert_eq!((meta.store_size, meta.vseg_seq, meta.max_seg_len), (3000, 5, 2048));
    }

    #[test]
    fn path_preserved() {
        let meta = LoMeta {
            id: LoId(1),
            kind: LoKind::UFile,
            codec: CodecKind::None,
            smgr: SmgrId(0),
            owner: UserId::DBA,
            size: 0,
            size_xid: Xid::INVALID,
            store_size: 0,
            vseg_seq: 0,
            max_seg_len: 0,
            data_rel: 0,
            idx_rel: 0,
            seg_rel: 0,
            seg_idx_rel: 0,
            path: Some(PathBuf::from("/usr/joe")),
            chunk_size: crate::CHUNK_SIZE,
        };
        let back = LoMeta::from_props(LoId(1), &meta.to_props()).unwrap();
        assert_eq!(back.path.unwrap(), PathBuf::from("/usr/joe"));
    }

    #[test]
    fn missing_property_is_error() {
        let mut props = HashMap::new();
        props.insert("kind".to_string(), "fchunk".to_string());
        assert!(LoMeta::from_props(LoId(9), &props).is_err());
    }

    #[test]
    fn kind_strings() {
        for k in [LoKind::UFile, LoKind::PFile, LoKind::FChunk, LoKind::VSegment] {
            assert_eq!(LoKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(LoKind::parse("blob"), None);
    }
}
