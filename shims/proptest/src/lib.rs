//! Offline shim for the `proptest` crate (see DESIGN.md, "dependency
//! policy"): the subset of the API the workspace's model/robustness tests
//! use, backed by a deterministic xorshift RNG.
//!
//! Differences from real proptest, deliberate for an offline CI:
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   verbatim; cases are seeded deterministically (seed = case index), so
//!   a failure reproduces by re-running the test.
//! * **String strategies** accept only the `.{a,b}` regex shape the
//!   workspace uses (random printable ASCII of bounded length).
//! * `ProptestConfig` carries only the case count.

pub mod strategy;
pub mod test_runner;

pub use strategy::{Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Strategy constructors, mirroring proptest's `prop` module tree.
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

/// Numeric `ANY` strategies (`prop::num::u8::ANY`, ...).
pub mod num {
    macro_rules! any_mod {
        ($($m:ident : $t:ty),+) => {$(
            /// `ANY` strategy for the primitive of the same name.
            pub mod $m {
                /// Uniform over the whole domain.
                pub const ANY: crate::strategy::AnyNum<$t> =
                    crate::strategy::AnyNum(std::marker::PhantomData);
            }
        )+};
    }
    any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize, i64: i64);
}

/// Boolean strategies.
pub mod bool {
    use crate::strategy::{AnyBool, WeightedBool};

    /// Fair coin.
    pub const ANY: AnyBool = AnyBool;

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> WeightedBool {
        WeightedBool(p)
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Select;

    /// Uniformly select one of `options`.
    pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() of empty vec");
        Select(options)
    }
}

/// What `use proptest::prelude::*` brings in.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` module alias used inside tests.
    pub mod prop {
        pub use crate::{bool, collection, num, sample};
    }
}

/// The test macro: a config header plus `#[test]` functions whose
/// arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = { $cfg }.cases;
            $(let $arg = $strat;)+
            for case in 0..cases {
                let mut rng = $crate::TestRng::deterministic(case as u64);
                $(let $arg = $crate::Strategy::generate(&$arg, &mut rng);)+
                let vals = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        #[allow(unreachable_code, reason = "a body ending in `return` leaves the Ok unreached")]
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {case}/{cases} failed: {}\n  inputs: {}",
                        e.0, vals
                    );
                }
            }
        }
    )*};
}

/// Weighted (or unweighted) union of strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$(
            (
                ($weight) as u32,
                {
                    let s = $strat;
                    ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                        $crate::Strategy::generate(&s, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>
                },
            )
        ),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

/// Fail the current case (with message) unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l != r, "assertion failed: {} (both {:?})", format!($($fmt)*), l);
    }};
}
