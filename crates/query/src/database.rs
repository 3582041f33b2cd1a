//! The database façade: environment + large-object store + registries +
//! query entry points.

use crate::exec::{blob_conversions, execute};
use crate::parser::parse;
use crate::{QueryError, Result};
use pglo_adt::builtins::{image_input_fn, image_output_fn, register_builtins};
use pglo_adt::types::{InputFn, OutputFn};
use pglo_adt::{Datum, ExecCtx, FunctionRegistry, TypeRegistry};
use pglo_core::{LoKind, LoStore};
use pglo_heap::{EnvOptions, StorageEnv};
use pglo_txn::Txn;
use std::path::Path;
use std::sync::Arc;

/// The result of a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for commands).
    pub columns: Vec<String>,
    /// Result rows (empty for commands).
    pub rows: Vec<Vec<Datum>>,
    /// Rows returned / inserted / updated / deleted / reclaimed.
    pub affected: usize,
    /// Name of the index the retrieve used, if any (diagnostics/tests).
    pub used_index: Option<String>,
}

impl QueryResult {
    pub(crate) fn command(affected: usize) -> Self {
        Self { columns: Vec::new(), rows: Vec::new(), affected, used_index: None }
    }

    /// Render as an aligned text table (examples and the REPL use this).
    // LINT: allow(R14, renders results for the examples)
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return format!("OK, {} row(s) affected\n", self.affected);
        }
        let mut cells: Vec<Vec<String>> = vec![self.columns.clone()];
        for row in &self.rows {
            cells.push(
                row.iter()
                    .map(|d| match d {
                        Datum::Text(s) => s.clone(),
                        other => format!("{other:?}"),
                    })
                    .collect(),
            );
        }
        let ncols = self.columns.len();
        let mut widths = vec![0usize; ncols];
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (r, row) in cells.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            out.push('\n');
            if r == 0 {
                for w in &widths {
                    out.push_str(&"-".repeat(*w));
                    out.push_str("  ");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// A database instance: storage environment, large-object store, type and
/// function registries, and the query engine.
pub struct Database {
    env: Arc<StorageEnv>,
    store: Arc<LoStore>,
    types: TypeRegistry,
    funcs: FunctionRegistry,
}

impl Database {
    /// Open (or create) a database at `dir` with default options.
    // LINT: allow(R14, the query layer's entry point; the crate doc, examples and tests open with it)
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(dir, EnvOptions::default())
    }

    /// Open with explicit environment options.
    pub fn open_with(dir: impl AsRef<Path>, opts: EnvOptions) -> Result<Database> {
        let env = StorageEnv::open_with(dir, opts)?;
        let store = Arc::new(LoStore::new(Arc::clone(&env))?);
        let types = TypeRegistry::new();
        let funcs = FunctionRegistry::new();
        register_builtins(&funcs)?;
        Ok(Database { env, store, types, funcs })
    }

    /// The storage environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// The large-object store.
    pub fn store(&self) -> &Arc<LoStore> {
        &self.store
    }

    /// The type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// The function/operator registry.
    pub fn funcs(&self) -> &FunctionRegistry {
        &self.funcs
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Txn {
        self.env.begin()
    }

    /// Execute one statement inside an existing transaction. The caller is
    /// responsible for calling [`Database::gc_temps`] when its query batch
    /// completes.
    pub fn execute(&self, txn: &Txn, text: &str) -> Result<QueryResult> {
        let stmt = parse(text)?;
        execute(self, txn, &stmt)
    }

    /// Run one statement in its own transaction: parse, execute, commit,
    /// then garbage-collect temporaries (§5) — except large objects that
    /// appear in the result, which now belong to the caller.
    pub fn run(&self, text: &str) -> Result<QueryResult> {
        let txn = self.begin();
        let result = match self.execute(&txn, text) {
            Ok(r) => r,
            Err(e) => {
                txn.abort();
                // The query's error is the one the caller hears; a failed
                // sweep is counted, and its temps stay for the next one.
                if self.store.gc_temps().is_err() {
                    obs::counter!("query.temp.gc.errors").add(1);
                }
                return Err(e);
            }
        };
        // Force-at-commit: the no-overwrite system's durability rule is
        // that a transaction's dirty pages reach stable storage before the
        // commit is acknowledged.
        self.env.pool().flush_all().map_err(pglo_heap::HeapError::from)?;
        txn.commit();
        self.store.gc_temps().map_err(QueryError::Lo)?;
        Ok(result)
    }

    /// Run a `;`-separated script, returning the last statement's result.
    // LINT: allow(R14, the multi-statement entry point the crate doc and tests use)
    pub fn run_script(&self, script: &str) -> Result<QueryResult> {
        let mut last = QueryResult::command(0);
        for stmt in script.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            last = self.run(stmt)?;
        }
        Ok(last)
    }

    /// Garbage-collect temporary large objects (end of query batch).
    pub fn gc_temps(&self) -> Result<usize> {
        self.store.gc_temps().map_err(QueryError::Lo)
    }

    /// Render a datum through its type's output conversion (the
    /// client-transfer path).
    // LINT: allow(R14, renders values for the examples and tests)
    pub fn datum_to_text(&self, txn: &Txn, datum: &Datum) -> Result<String> {
        let mut ctx = ExecCtx::new(&self.store, txn, &self.types);
        Ok(self.types.output(&mut ctx, datum)?)
    }

    /// Resolve the conversion pair named in `create large type`: routines
    /// with specially-known names (`image_in`/`image_out`) bind to their
    /// Rust implementations; anything else gets the generic byte-blob pair.
    pub(crate) fn conversion_pair(
        &self,
        type_name: &str,
        input: &str,
        output: &str,
        kind: LoKind,
    ) -> Result<(InputFn, OutputFn)> {
        let input_fn = match input {
            "image_in" => image_input_fn(),
            _ => blob_conversions(type_name, kind).0,
        };
        let output_fn = match output {
            "image_out" => image_output_fn(),
            _ => blob_conversions(type_name, kind).1,
        };
        Ok((input_fn, output_fn))
    }
}
