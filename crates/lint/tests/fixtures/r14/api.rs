//! R14 fixture: the checked crate's pub API (posing as
//! `crates/heap/src/lib.rs`). The users are the other files here.

pub struct Codec;

impl Codec {
    /// Negative: a library user names it as a value, `map(Codec::decode)`.
    pub fn decode(b: u8) -> u8 {
        Self::widen(b)
    }

    /// Negative: called through `Self::` from the impl's own library code.
    pub fn widen(b: u8) -> u8 {
        b
    }

    /// Negative: a library user calls it as a method, arity aside.
    pub fn check(&self, bytes: std::collections::HashMap<u8, u8>) -> bool {
        bytes.is_empty()
    }

    /// Negative: a library user calls it through a turbofish.
    pub fn sized<const N: usize>(&self) -> usize {
        N
    }
}

/// Negative: a binary under `src/bin/` calls it.
pub fn from_bin() {}

/// Negative: the benchmark crate calls it.
pub fn from_bench() {}

/// Positive: only a `#[cfg(test)]` test and an integration test call it.
pub fn only_tested() {}

/// Positive: only an example calls it.
pub fn only_in_example() {}

/// Positive: nothing calls it; a `use` of it is not a use.
pub fn never_called() {}

/// Allowed: kept under a reasoned allow and a budget row.
// LINT: allow(R14, the fixture's documented entry point)
pub fn kept() {}

/// Not checked: not `pub` (rustc's dead-code lint covers it).
fn private_unused() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_only_tested() {
        super::only_tested();
        super::kept();
    }
}
