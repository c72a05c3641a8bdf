//! Deterministic, dependency-free randomness for the whole workspace.
//!
//! The LAC-retiming loop and the annealing floorplanner are *seeded
//! stochastic searches*: run-to-run reproducibility is what makes the
//! paper's Table-1-style comparisons meaningful. This crate pins the
//! entire workspace to one small, auditable generator so results are
//! bit-for-bit identical across runs, machines and toolchains — and so
//! the build needs no network access (the previous `rand`/`rand_chacha`
//! dependency could not be fetched in a hermetic environment).
//!
//! Four pieces live here:
//!
//! * [`Rng`] — a SplitMix64-seeded xoshiro256++ generator exposing
//!   exactly the surface the codebase uses: [`Rng::seed_from_u64`],
//!   [`Rng::gen_range`] (integer and float ranges, half-open and
//!   inclusive), [`Rng::gen_bool`], [`Rng::shuffle`] and [`Rng::choose`]
//!   (the latter two also via the [`SliceRandom`] extension trait to keep
//!   `slice.shuffle(&mut rng)` call sites unchanged);
//! * [`mod@prop`] — a minimal property-testing driver with failure-seed
//!   reporting and single-seed replay (replaces `proptest`);
//! * [`mod@fault`] — seeded input mutators ([`FaultPlan`]) for the
//!   fail-soft fault-injection suites;
//! * [`mod@synth`] — seeded synthetic netlist topologies (ring-of-rings,
//!   pipelined mesh) for the scale benchmarks.

pub mod fault;
pub mod prop;
pub mod synth;

pub use fault::FaultPlan;
pub use prop::{case_seed, run_property};

/// Multiplier from the SplitMix64 reference implementation.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step: advances `state` and returns the next output.
/// Used for seed expansion only; the main stream is xoshiro256++.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable deterministic PRNG: xoshiro256++ with SplitMix64 seed
/// expansion (Blackman & Vigna). Not cryptographic; statistically strong
/// and extremely fast, which is exactly what seeded annealing/retiming
/// experiments need.
///
/// # Examples
///
/// ```
/// use lacr_prng::Rng;
///
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed. The same seed always
    /// yields the same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256++ requires a non-zero state; SplitMix64 cannot emit
        // four consecutive zeros, but keep the guard explicit.
        if s == [0; 4] {
            s[0] = SPLITMIX_GAMMA;
        }
        Self { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An unbiased uniform integer in `[0, span)` via Lemire's
    /// widening-multiply rejection method. `span` must be non-zero.
    #[inline]
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value from `range` (half-open `a..b` or inclusive
    /// `a..=b`; integers and `f64` supported).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p = {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from `self`.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.bounded_u64(span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span + 1) as $t)
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(
            self.start < self.end && self.start.is_finite() && self.end.is_finite(),
            "gen_range: bad f64 range {:?}",
            self
        );
        let v = self.start + (self.end - self.start) * rng.next_f64();
        // Floating-point rounding can land exactly on `end`; stay half-open.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f32 {
        (core::ops::Range {
            start: self.start as f64,
            end: self.end as f64,
        })
        .sample(rng) as f32
    }
}

/// Extension trait mirroring `rand::seq::SliceRandom` so call sites keep
/// the `slice.shuffle(&mut rng)` / `slice.choose(&mut rng)` shape.
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// Shuffles the slice in place.
    fn shuffle(&mut self, rng: &mut Rng);
    /// A uniformly chosen element, or `None` if empty.
    fn choose(&self, rng: &mut Rng) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }

    fn choose(&self, rng: &mut Rng) -> Option<&T> {
        rng.choose(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 implementation by Sebastiano Vigna.
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }

    #[test]
    fn full_u64_stream_is_not_constant() {
        let mut rng = Rng::seed_from_u64(0);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let mut uniq = draws.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), draws.len(), "{draws:?}");
    }

    #[test]
    fn signed_ranges_cover_negative_values() {
        let mut rng = Rng::seed_from_u64(3);
        let mut saw_neg = false;
        for _ in 0..100 {
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            saw_neg |= v < 0;
        }
        assert!(saw_neg);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.gen_range(3..3usize);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.gen_bool(1.5);
    }
}
