//! The workspace's property-test loop, written after `proptest` 1.x.
//!
//! `proptest! { #[test] fn name(x in strategy, ..) { body } }` expands to a
//! plain test that runs `body` over [`ProptestConfig::cases`] inputs drawn
//! from a [`torpedo_rng`] generator seeded by the line of the `proptest!`
//! invocation, so every run draws the same inputs. There is no shrinking and
//! no regression file: an input worth keeping becomes a named test that
//! calls the same check. Only the strategies the workspace uses exist.

use torpedo_rng::rngs::StdRng;
use torpedo_rng::{RngCore, SampleRange, SeedableRng};

/// How many inputs each property in a `proptest!` block runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Inputs drawn per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` inputs per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 256 cases, `proptest`'s own default.
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A source of test inputs: draws one value per case.
pub trait Strategy {
    /// The type of the values drawn.
    type Value;

    /// Draw one value.
    fn sample_one(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: Clone> Strategy for std::ops::Range<T>
where
    std::ops::Range<T>: SampleRange<T>,
{
    type Value = T;

    fn sample_one(&self, rng: &mut StdRng) -> T {
        self.clone().sample_from(rng)
    }
}

impl<T: Clone> Strategy for std::ops::RangeInclusive<T>
where
    std::ops::RangeInclusive<T>: SampleRange<T>,
{
    type Value = T;

    fn sample_one(&self, rng: &mut StdRng) -> T {
        self.clone().sample_from(rng)
    }
}

/// Types [`prelude::any`] draws over their whole domain.
pub trait ArbSample: Sized {
    /// Draw one value.
    fn arb_sample(rng: &mut StdRng) -> Self;
}

impl ArbSample for u64 {
    fn arb_sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl ArbSample for bool {
    fn arb_sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy [`prelude::any`] returns.
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: ArbSample> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample_one(&self, rng: &mut StdRng) -> T {
        T::arb_sample(rng)
    }
}

/// The generator one property draws its inputs from.
#[doc(hidden)]
pub fn __case_rng(line: u32) -> StdRng {
    StdRng::seed_from_u64(0x5EED ^ line as u64)
}

/// Collection strategies.
pub mod collection {
    use crate::Strategy;
    use torpedo_rng::rngs::StdRng;
    use torpedo_rng::Rng;

    /// Size specification: a fixed count or a range of counts.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end.saturating_sub(1),
            }
        }
    }

    impl SizeRange {
        fn draw(&self, rng: &mut StdRng) -> usize {
            if self.hi <= self.lo {
                self.lo
            } else {
                rng.gen_range(self.lo..=self.hi)
            }
        }
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy [`vec()`] returns.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample_one(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.sample_one(rng)).collect()
        }
    }

    /// Hash sets of up to `size` distinct elements drawn from `element`.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy [`hash_set`] returns.
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        type Value = std::collections::HashSet<S::Value>;

        fn sample_one(&self, rng: &mut StdRng) -> std::collections::HashSet<S::Value> {
            let n = self.size.draw(rng);
            let mut out = std::collections::HashSet::new();
            // Bounded attempts: duplicates may make exact `n` unreachable.
            for _ in 0..n * 4 {
                if out.len() >= n {
                    break;
                }
                out.insert(self.element.sample_one(rng));
            }
            out
        }
    }
}

/// Everything a property-test file imports.
pub mod prelude {
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// Values drawn over the whole domain of `T`.
    pub fn any<T: crate::ArbSample>() -> crate::AnyStrategy<T> {
        crate::AnyStrategy(std::marker::PhantomData)
    }
}

/// Declare property tests, optionally led by
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::__case_rng(line!());
            for _ in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::sample_one(&($strat), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` inside a property.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static CASES: AtomicU32 = AtomicU32::new(0);

    proptest! {
        fn count_cases(_x in any::<u64>()) {
            CASES.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn properties_without_a_config_run_256_cases() {
        count_cases();
        assert_eq!(CASES.load(Ordering::Relaxed), 256);
    }
}
