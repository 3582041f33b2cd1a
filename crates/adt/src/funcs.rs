//! User-defined function and operator registries.
//!
//! "Operators and functions are dynamically loaded, and may be invoked
//! from the query language" (§2). Here "dynamically loaded" is dynamic
//! *registration*: any `Fn(&mut ExecCtx, &[Datum]) -> Result<Datum>` can be
//! registered at runtime and is immediately callable from POSTQUEL.

use crate::exec::ExecCtx;
use crate::{AdtError, Datum, Result};
use parking_lot::{ranks, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered function body.
pub type AdtFn = Arc<dyn Fn(&mut ExecCtx<'_>, &[Datum]) -> Result<Datum> + Send + Sync>;

/// A function definition.
pub struct FnDef {
    /// The name.
    pub name: String,
    /// The arity.
    pub arity: usize,
    /// Human-readable signature for error messages / catalogs.
    pub signature: String,
    /// The body.
    pub body: AdtFn,
}

/// Functions keyed by `(name, arity)`, plus binary-operator aliases.
pub struct FunctionRegistry {
    funcs: RwLock<HashMap<(String, usize), Arc<FnDef>>>,
    /// Operator symbol → function name (binary operators only).
    operators: RwLock<HashMap<String, String>>,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            funcs: RwLock::with_rank(HashMap::new(), ranks::ADT_FUNCS),
            operators: RwLock::with_rank(HashMap::new(), ranks::ADT_OPERATORS),
        }
    }

    /// Register a function. Overloading by arity is allowed; re-registering
    /// the same `(name, arity)` is an error.
    pub fn register(&self, name: &str, arity: usize, signature: &str, body: AdtFn) -> Result<()> {
        let mut funcs = self.funcs.write();
        let key = (name.to_string(), arity);
        if funcs.contains_key(&key) {
            return Err(AdtError::Duplicate(format!("{name}/{arity}")));
        }
        funcs.insert(
            key,
            Arc::new(FnDef {
                name: name.to_string(),
                arity,
                signature: signature.to_string(),
                body,
            }),
        );
        Ok(())
    }

    /// Bind an operator symbol to a registered binary function.
    pub fn register_operator(&self, symbol: &str, fn_name: &str) -> Result<()> {
        if self.funcs.read().get(&(fn_name.to_string(), 2)).is_none() {
            return Err(AdtError::UnknownFunction(fn_name.to_string(), 2));
        }
        let mut ops = self.operators.write();
        if ops.contains_key(symbol) {
            return Err(AdtError::Duplicate(symbol.to_string()));
        }
        ops.insert(symbol.to_string(), fn_name.to_string());
        Ok(())
    }

    /// Look up a function.
    pub fn get(&self, name: &str, arity: usize) -> Result<Arc<FnDef>> {
        self.funcs
            .read()
            .get(&(name.to_string(), arity))
            .cloned()
            .ok_or_else(|| AdtError::UnknownFunction(name.to_string(), arity))
    }

    /// Invoke a function by name.
    pub fn invoke(&self, ctx: &mut ExecCtx<'_>, name: &str, args: &[Datum]) -> Result<Datum> {
        let def = self.get(name, args.len())?;
        (def.body)(ctx, args)
    }

    /// Invoke a user-defined binary operator.
    pub fn invoke_operator(
        &self,
        ctx: &mut ExecCtx<'_>,
        symbol: &str,
        left: Datum,
        right: Datum,
    ) -> Result<Datum> {
        let fn_name = self
            .operators
            .read()
            .get(symbol)
            .cloned()
            .ok_or_else(|| AdtError::UnknownOperator(symbol.to_string()))?;
        self.invoke(ctx, &fn_name, &[left, right])
    }

    /// All registered `(name, arity, signature)`, sorted.
    // LINT: allow(R14, the REPL's \funcs listing in examples/postquel_repl.rs)
    pub fn list(&self) -> Vec<(String, usize, String)> {
        let mut v: Vec<(String, usize, String)> = self
            .funcs
            .read()
            .values()
            .map(|d| (d.name.clone(), d.arity, d.signature.clone()))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> AdtFn {
        Arc::new(|_, args| Ok(args.first().cloned().unwrap_or(Datum::Null)))
    }

    #[test]
    fn register_and_lookup() {
        let reg = FunctionRegistry::new();
        reg.register("first", 2, "first(any, any) -> any", dummy()).unwrap();
        assert!(reg.get("first", 2).is_ok());
        assert!(matches!(reg.get("first", 1), Err(AdtError::UnknownFunction(_, 1))));
        assert!(matches!(reg.register("first", 2, "", dummy()), Err(AdtError::Duplicate(_))));
        // Overload by arity is fine.
        reg.register("first", 1, "first(any) -> any", dummy()).unwrap();
        assert_eq!(reg.list().len(), 2);
    }

    #[test]
    fn operators_bind_to_functions() {
        let reg = FunctionRegistry::new();
        assert!(matches!(
            reg.register_operator("~~", "nope"),
            Err(AdtError::UnknownFunction(_, 2))
        ));
        reg.register("overlaps", 2, "", dummy()).unwrap();
        reg.register_operator("&&", "overlaps").unwrap();
        assert!(matches!(reg.register_operator("&&", "overlaps"), Err(AdtError::Duplicate(_))));
    }
}
