//! Abstract data types, user-defined functions, and operators over large
//! objects (§3–§5).
//!
//! "A much better alternative is to support an extensible collection of
//! data types in the DBMS with user-defined functions. In this way, the
//! data type image could be added … functions that operate on the large
//! type could be registered with the database system, and could then be run
//! directly by the data manager."
//!
//! This crate is that mechanism:
//!
//! * [`TypeRegistry`] — `create large type name (input = …, output = …,
//!   storage = …)` (§4), including the input/output *conversion routines*
//!   and the per-type storage/compression choice;
//! * [`FunctionRegistry`] / operators — dynamically registered functions
//!   invocable from the query language;
//! * [`Datum`] — runtime values. Large values are [`LoRef`]s, passed **by
//!   reference**: "functions using large objects must be able to locate
//!   them, and to request small chunks for individual operations" (§3's
//!   first problem with naive ADTs) — a function receives the object name
//!   and opens a chunked handle, never a multi-gigabyte in-memory value;
//! * functions returning large results allocate **temporary large
//!   objects** (§5) through [`ExecCtx`], garbage-collected when the query
//!   completes;
//! * [`builtins`] — the demonstration functions, including the paper's
//!   `clip(EMP.picture, "0,0,20,20"::rect)`.

// Library code: no panic sites, unranked locks or swallowed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod builtins;
pub mod datum;
pub mod exec;
pub mod funcs;
pub mod types;

pub use datum::{Datum, LoRef, Rect, TypeTag};
pub use exec::ExecCtx;
pub use funcs::{AdtFn, FnDef, FunctionRegistry};
pub use types::{LargeTypeDef, TypeDef, TypeRegistry};

use pglo_core::LoError;

/// Errors from ADT machinery.
#[derive(Debug)]
pub enum AdtError {
    /// Large-object layer failure.
    Lo(LoError),
    /// Unknown type name.
    UnknownType(String),
    /// Unknown function (name, arity).
    UnknownFunction(String, usize),
    /// Unknown operator.
    UnknownOperator(String),
    /// Type mismatch invoking a function or conversion.
    TypeMismatch {
        /// What the operation needed.
        expected: String,
        /// What it received.
        got: String,
    },
    /// Input conversion failed to parse.
    BadInput {
        /// The target type.
        type_name: String,
        /// The input text.
        text: String,
        /// Why conversion failed.
        reason: String,
    },
    /// A name was registered twice.
    Duplicate(String),
}

impl std::fmt::Display for AdtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdtError::Lo(e) => write!(f, "large object: {e}"),
            AdtError::UnknownType(name) => write!(f, "unknown type \"{name}\""),
            AdtError::UnknownFunction(name, arity) => {
                write!(f, "unknown function \"{name}\" with {arity} arguments")
            }
            AdtError::UnknownOperator(op) => write!(f, "unknown operator \"{op}\""),
            AdtError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            AdtError::BadInput { type_name, text, reason } => {
                write!(f, "cannot convert \"{text}\" to {type_name}: {reason}")
            }
            AdtError::Duplicate(name) => write!(f, "\"{name}\" is already registered"),
        }
    }
}

impl std::error::Error for AdtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdtError::Lo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoError> for AdtError {
    fn from(e: LoError) -> Self {
        AdtError::Lo(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, AdtError>;
