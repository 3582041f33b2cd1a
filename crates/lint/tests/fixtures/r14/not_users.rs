//! R14 fixture: callers that do not count, posing as an integration
//! test and as an example.

fn main() {
    heap::only_tested();
    heap::only_in_example();
}
