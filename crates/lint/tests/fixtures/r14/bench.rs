//! R14 fixture: the benchmark crate (posing as
//! `crates/bench/src/workload.rs`).

pub fn run() {
    heap::from_bench();
}
