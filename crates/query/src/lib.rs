//! A POSTQUEL-style query language over classes and large ADTs.
//!
//! Enough of POSTGRES Version 4's query language to run every statement the
//! paper shows:
//!
//! ```text
//! create EMP (name = text, salary = int4, picture = image)
//! create large type image (input = image_in, output = image_out,
//!                          storage = fchunk, compression = rle)
//! append EMP (name = "Joe", picture = "640x480:7"::image)
//! retrieve (EMP.picture) where EMP.name = "Joe"
//! retrieve (clip(EMP.picture, "0,0,20,20"::rect)) where EMP.name = "Mike"
//! replace EMP (salary = EMP.salary + 10) where EMP.name = "Joe"
//! delete EMP where EMP.salary > 100
//! retrieve (EMP.name) as of 42        -- time travel
//! destroy EMP
//! ```
//!
//! Beyond the paper's examples the engine also supports POSTQUEL staples:
//!
//! ```text
//! retrieve unique (EMP.name) sort by name desc
//! retrieve (n = count(), payroll = sum(EMP.salary)) from EMP
//! retrieve into RICH (EMP.name) where EMP.salary > 100
//! define index emp_w on EMP (image_width(EMP.picture))   -- §3: indexing
//! retrieve (EMP.name) where image_width(EMP.picture) = 640  -- index scan
//! destroy index emp_w on EMP
//! vacuum EMP
//! ```
//!
//! Multi-class queries run as nested-loop joins
//! (`retrieve (STAFF.sname, DEPT.budget) where STAFF.dept = DEPT.dname`).
//!
//! Scope notes (documented limits of the reproduction, not of the design):
//! aggregates apply to single-class queries only (no grouping); functions
//! and conversion routines are registered from Rust through
//! [`pglo_adt::FunctionRegistry`] (the paper's "dynamically loaded"
//! operators) rather than compiled from query text.

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

pub mod ast;
pub mod database;
pub mod exec;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod schema;

pub use ast::{Expr, Statement, Target};
pub use database::{Database, QueryResult};

use pglo_adt::AdtError;
use pglo_core::LoError;
use pglo_heap::HeapError;

/// Errors from parsing or executing a query.
#[derive(Debug)]
pub enum QueryError {
    /// Lexical or syntactic problem, with a human-oriented message.
    Parse(String),
    /// Semantic problem (unknown class/column, type error, …).
    Semantic(String),
    /// Heap.
    Heap(HeapError),
    /// Adt.
    Adt(AdtError),
    /// Lo.
    Lo(LoError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "parse error: {m}"),
            QueryError::Semantic(m) => write!(f, "error: {m}"),
            QueryError::Heap(e) => write!(f, "storage error: {e}"),
            QueryError::Adt(e) => write!(f, "{e}"),
            QueryError::Lo(e) => write!(f, "large object error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Heap(e) => Some(e),
            QueryError::Adt(e) => Some(e),
            QueryError::Lo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for QueryError {
    fn from(e: HeapError) -> Self {
        QueryError::Heap(e)
    }
}

impl From<AdtError> for QueryError {
    fn from(e: AdtError) -> Self {
        QueryError::Adt(e)
    }
}

impl From<LoError> for QueryError {
    fn from(e: LoError) -> Self {
        QueryError::Lo(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, QueryError>;
