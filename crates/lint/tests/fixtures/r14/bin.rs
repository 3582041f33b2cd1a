//! R14 fixture: a binary (posing as `crates/heap/src/bin/tool.rs`).

fn main() {
    heap::from_bin();
}
