//! A minimal property-testing driver (seeded case generation with
//! failure-seed reporting), replacing `proptest` for this workspace.
//!
//! Each property runs `cases` times. Case `i` gets a fresh [`Rng`] whose
//! seed is derived deterministically from the property *name* and `i`, so
//! every suite is reproducible and independent of test ordering. On
//! failure the panic message reports the exact replay seed; setting
//! `LACR_PROP_REPLAY=<seed>` reruns a property on just that seed, which
//! turns any red CI log into a one-case local reproduction.
//!
//! ```
//! lacr_prng::properties! {
//!     cases = 32;
//!
//!     /// Shuffling preserves the multiset of elements.
//!     fn shuffle_is_permutation(rng) {
//!         let mut v: Vec<u32> = (0..10).collect();
//!         rng.shuffle(&mut v);
//!         let mut sorted = v.clone();
//!         sorted.sort_unstable();
//!         lacr_prng::prop_assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! (The macro expands each property into a `#[test]` function, so inside
//! a test crate the cases above run under the normal harness.)

use crate::{splitmix64, Rng};

/// Outcome of one property case; `Err` carries the failure message.
pub type CaseResult = Result<(), String>;

/// FNV-1a hash of the property name, used to give each property its own
/// seed lane.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The replay seed for case `case` of property `name`. Public so
/// external drivers (e.g. a thread-pool fan-out over cases) can derive
/// the same seed lanes as [`run_property`] and keep failure reports
/// replayable with `LACR_PROP_REPLAY`.
pub fn case_seed(name: &str, case: u64) -> u64 {
    let mut s = fnv1a(name) ^ case;
    splitmix64(&mut s)
}

/// Runs `property` on `cases` deterministic seeds, panicking with the
/// failing seed on the first falsified case.
///
/// If the environment variable `LACR_PROP_REPLAY` is set to a seed
/// (decimal or `0x…` hex), only that seed is run — the shape printed in a
/// failure report.
///
/// # Panics
///
/// Panics if the property returns `Err` for some case, or if
/// `LACR_PROP_REPLAY` is set but unparsable.
pub fn run_property(name: &str, cases: u64, mut property: impl FnMut(&mut Rng) -> CaseResult) {
    if let Ok(replay) = std::env::var("LACR_PROP_REPLAY") {
        let trimmed = replay.trim();
        let seed = match trimmed.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => trimmed.parse(),
        }
        .unwrap_or_else(|e| panic!("LACR_PROP_REPLAY={trimmed:?} is not a seed: {e}"));
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!("property `{name}` falsified on replay seed {seed:#018x}:\n  {msg}");
        }
        return;
    }
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!(
                "property `{name}` falsified on case {case}/{cases}:\n  {msg}\n  \
                 replay with: LACR_PROP_REPLAY={seed:#x} cargo test {name}"
            );
        }
    }
}

/// Declares `#[test]` functions that each run a seeded property via
/// [`run_property`]. The body receives a `&mut Rng` binding named by the
/// parameter and uses [`prop_assert!`](crate::prop_assert)-style macros (which return the
/// failure instead of panicking, so the driver can attach the seed).
#[macro_export]
macro_rules! properties {
    (
        cases = $cases:expr;
        $(
            $(#[$attr:meta])*
            fn $name:ident($rng:ident) $body:block
        )*
    ) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                $crate::run_property(
                    stringify!($name),
                    $cases,
                    |$rng: &mut $crate::Rng| -> $crate::prop::CaseResult {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the enclosing property case if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property case if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n    left: {:?}\n   right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Fails the enclosing property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: `{} != {}`\n    both: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_cases_and_names() {
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u64;
        run_property("always_true", 17, |_| {
            count += 1;
            Ok(())
        });
        assert_eq!(count, 17);
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_reports_seed() {
        run_property("always_false", 4, |_| Err("nope".to_string()));
    }
}
