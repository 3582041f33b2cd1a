//! The type registry: small built-ins plus user-created large ADTs.
//!
//! §4's DDL, as a runtime API:
//!
//! ```text
//! create large type type-name (
//!     input   = procedure-name-1,
//!     output  = procedure-name-2,
//!     storage = storage type)
//! ```

use crate::exec::ExecCtx;
use crate::{AdtError, Datum, Result};
use parking_lot::{ranks, RwLock};
use pglo_compress::CodecKind;
use pglo_core::LoKind;
use pglo_smgr::SmgrId;
use std::collections::HashMap;
use std::sync::Arc;

/// Input conversion routine: external text → internal datum. For large
/// types this *creates a large object* and fills it (the paper's input
/// conversion with compression happening inside the chunking layer).
pub type InputFn = Arc<dyn Fn(&mut ExecCtx<'_>, &str) -> Result<Datum> + Send + Sync>;

/// Output conversion routine: internal datum → external text.
pub type OutputFn = Arc<dyn Fn(&mut ExecCtx<'_>, &Datum) -> Result<String> + Send + Sync>;

/// The `storage =` / `compression =` clauses of a large type.
#[derive(Debug, Clone)]
pub struct LargeTypeDef {
    /// The storage.
    pub storage: LoKind,
    /// The codec.
    pub codec: CodecKind,
    /// Device override; environment default when `None`.
    pub smgr: Option<SmgrId>,
}

/// A registered type.
pub struct TypeDef {
    /// The name.
    pub name: String,
    /// The input.
    pub input: Option<InputFn>,
    /// The output.
    pub output: Option<OutputFn>,
    /// `Some` for large ADTs.
    pub large: Option<LargeTypeDef>,
}

/// The type registry.
pub struct TypeRegistry {
    types: RwLock<HashMap<String, Arc<TypeDef>>>,
}

impl Default for TypeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeRegistry {
    /// A registry pre-loaded with the small built-in types.
    pub fn new() -> Self {
        let reg = Self { types: RwLock::with_rank(HashMap::new(), ranks::ADT_TYPES) };
        for name in ["bool", "int4", "int8", "float8", "text", "rect"] {
            reg.types.write().insert(
                name.to_string(),
                Arc::new(TypeDef {
                    name: name.to_string(),
                    input: None,
                    output: None,
                    large: None,
                }),
            );
        }
        reg
    }

    /// Register a large ADT — `create large type` (§4).
    pub fn create_large_type(
        &self,
        name: &str,
        input: InputFn,
        output: OutputFn,
        large: LargeTypeDef,
    ) -> Result<()> {
        let mut types = self.types.write();
        if types.contains_key(name) {
            return Err(AdtError::Duplicate(name.to_string()));
        }
        types.insert(
            name.to_string(),
            Arc::new(TypeDef {
                name: name.to_string(),
                input: Some(input),
                output: Some(output),
                large: Some(large),
            }),
        );
        Ok(())
    }

    /// Look up a type.
    pub fn get(&self, name: &str) -> Result<Arc<TypeDef>> {
        self.types.read().get(name).cloned().ok_or_else(|| AdtError::UnknownType(name.to_string()))
    }

    /// Whether `name` names a large ADT.
    // LINT: allow(R14, the REPL's \types listing in examples/postquel_repl.rs)
    pub fn is_large(&self, name: &str) -> bool {
        self.types.read().get(name).is_some_and(|t| t.large.is_some())
    }

    /// All registered type names, sorted.
    // LINT: allow(R14, the REPL's \types listing in examples/postquel_repl.rs)
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.types.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Convert external text into a datum of type `name`.
    ///
    /// Small built-ins parse inline; large ADTs run their registered input
    /// conversion routine (which creates and fills a large object).
    pub fn input(&self, ctx: &mut ExecCtx<'_>, name: &str, text: &str) -> Result<Datum> {
        let def = self.get(name)?;
        if let Some(input) = &def.input {
            return input(ctx, text);
        }
        let bad = |reason: &str| AdtError::BadInput {
            type_name: name.to_string(),
            text: text.to_string(),
            reason: reason.to_string(),
        };
        match name {
            "bool" => match text {
                "true" | "t" => Ok(Datum::Bool(true)),
                "false" | "f" => Ok(Datum::Bool(false)),
                _ => Err(bad("expected true/false")),
            },
            "int4" => text.parse().map(Datum::Int4).map_err(|_| bad("not an int4")),
            "int8" => text.parse().map(Datum::Int8).map_err(|_| bad("not an int8")),
            "float8" => text.parse().map(Datum::Float8).map_err(|_| bad("not a float8")),
            "text" => Ok(Datum::Text(text.to_string())),
            "rect" => crate::Rect::parse(text).map(Datum::Rect),
            _ => Err(bad("type has no input conversion")),
        }
    }

    /// Convert a datum to external text, running the output conversion
    /// routine for large ADTs.
    pub fn output(&self, ctx: &mut ExecCtx<'_>, datum: &Datum) -> Result<String> {
        if let Datum::Large(l) = datum {
            let def = self.get(&l.type_name)?;
            if let Some(output) = &def.output {
                return output(ctx, datum);
            }
        }
        Ok(match datum {
            Datum::Null => "null".to_string(),
            Datum::Bool(b) => b.to_string(),
            Datum::Int4(v) => v.to_string(),
            Datum::Int8(v) => v.to_string(),
            Datum::Float8(v) => format!("{v}"),
            Datum::Text(s) => s.clone(),
            Datum::Rect(r) => r.to_string(),
            Datum::Large(l) => l.id.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_present() {
        let reg = TypeRegistry::new();
        for name in ["bool", "int4", "int8", "float8", "text", "rect"] {
            assert!(reg.get(name).is_ok(), "{name}");
            assert!(!reg.is_large(name));
        }
        assert!(reg.get("image").is_err());
    }

    #[test]
    fn create_large_type_registers() {
        let reg = TypeRegistry::new();
        let input: InputFn = Arc::new(|_, _| Ok(Datum::Null));
        let output: OutputFn = Arc::new(|_, _| Ok(String::new()));
        reg.create_large_type(
            "image",
            input.clone(),
            output.clone(),
            LargeTypeDef { storage: LoKind::FChunk, codec: CodecKind::Rle, smgr: None },
        )
        .unwrap();
        assert!(reg.is_large("image"));
        assert!(matches!(
            reg.create_large_type(
                "image",
                input,
                output,
                LargeTypeDef { storage: LoKind::FChunk, codec: CodecKind::None, smgr: None }
            ),
            Err(AdtError::Duplicate(_))
        ));
        assert!(reg.names().contains(&"image".to_string()));
    }
}
