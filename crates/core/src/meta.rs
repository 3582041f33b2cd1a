//! Large-object metadata, persisted through the class catalog.
//!
//! Every large object is registered in the catalog under the reserved name
//! `$lo_<id>` with its implementation kind, codec, device, component
//! relation OIDs and owner in the class property bag. Its size is not
//! there: an open derives it from the chunks or segments its snapshot
//! sees.

use crate::{LoError, LoId, Result, UserId};
use pglo_compress::CodecKind;
use pglo_smgr::SmgrId;
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
    /// v-segment only: longest segment written so far (0: unknown), only
    /// ever raised.
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
    /// Serialize to catalog properties. `max_seg_len` is written by the
    /// v-segment write that raises it, never at create: absent, it reads
    /// back as zero.
    pub fn to_props(&self) -> HashMap<String, String> {
        let mut p = HashMap::new();
        p.insert("kind".into(), self.kind.as_str().into());
        p.insert("codec".into(), self.codec.as_str().into());
        p.insert("smgr".into(), self.smgr.0.to_string());
        p.insert("owner".into(), self.owner.0.to_string());
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
        assert_eq!(back.seg_idx_rel, 103);
        assert_eq!(back.path, None);
        // The create-time layout carries no size and no segment bound.
        assert!(!props.contains_key("size") && !props.contains_key("max_seg_len"));
        assert_eq!(back.max_seg_len, 0);
    }

    /// The segment bound reads back typed, and the keys an earlier build
    /// cached the size under are ignored.
    #[test]
    fn raised_bound_is_typed_and_old_size_keys_ignored() {
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
            ("store_size", "3000"),
            ("max_seg_len", "2048"),
        ] {
            props.insert(k.to_string(), v.to_string());
        }
        let meta = LoMeta::from_props(LoId(3), &props).unwrap();
        assert_eq!(meta.max_seg_len, 2048);
    }

    #[test]
    fn path_preserved() {
        let meta = LoMeta {
            id: LoId(1),
            kind: LoKind::UFile,
            codec: CodecKind::None,
            smgr: SmgrId(0),
            owner: UserId::DBA,
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
