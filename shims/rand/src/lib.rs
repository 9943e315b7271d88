//! In-tree, dependency-free stand-in for the subset of the `rand` 0.8 API
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! its own implementation of the traits (`RngCore`, `Rng`, `SeedableRng`),
//! the `StdRng` generator (xoshiro256++ seeded via SplitMix64), and the
//! `Standard` distribution. The API is source-compatible with the call sites
//! in this repository; it makes no attempt to reproduce the upstream
//! generator's exact output streams — all determinism guarantees in this
//! repo are relative to *this* implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Error type for fallible RNG operations (never produced by this shim's
/// generators; exists for trait compatibility).
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator: a source of uniform raw bits.
pub trait RngCore {
    /// Returns the next 32 uniform random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// A generator seedable from a fixed-size byte seed or a `u64`.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanding it with SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let out = splitmix_finalize(state);
            let bytes = out.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix_finalize(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Extension methods on top of [`RngCore`]: typed values, ranges, sampling.
pub trait Rng: RngCore {
    /// Returns a uniform value of type `T`.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution as _;
        distributions::Standard.sample(self)
    }

    /// Returns a uniform value in `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        self.gen::<f64>() < p
    }

    /// Samples one value from `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    /// Converts the generator into an iterator of samples from `distr`.
    fn sample_iter<T, D: distributions::Distribution<T>>(
        self,
        distr: D,
    ) -> distributions::DistIter<D, Self, T>
    where
        Self: Sized,
    {
        distributions::DistIter::new(distr, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A type usable as the argument of [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! uint_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128) - (self.start as u128);
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                self.start + (wide % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                lo + (wide % span) as $t
            }
        }
    )*};
}
uint_sample_range!(u8, u16, u32, u64, usize);

macro_rules! int_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                (self.start as i128 + (wide % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                (lo as i128 + (wide % span) as i128) as $t
            }
        }
    )*};
}
int_sample_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u: $t = unit_float(rng) as $t;
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u: $t = unit_float(rng) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}
float_sample_range!(f32, f64);

/// Uniform in `[0, 1)` with 53 bits of precision.
fn unit_float<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub mod distributions {
    //! Sampling distributions (only [`Standard`] is provided).

    use super::{unit_float, Rng, RngCore};
    use std::marker::PhantomData;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Samples one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" uniform distribution of a primitive type: full integer
    /// range, `[0, 1)` for floats, fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_uint {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_uint!(u8, u16, u32, u64, usize);

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Distribution<i128> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i128 {
            <Standard as Distribution<u128>>::sample(self, rng) as i128
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_float(rng)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Iterator of samples, returned by [`Rng::sample_iter`].
    #[derive(Debug)]
    pub struct DistIter<D, R, T> {
        distr: D,
        rng: R,
        _marker: PhantomData<fn() -> T>,
    }

    impl<D, R, T> DistIter<D, R, T> {
        pub(crate) fn new(distr: D, rng: R) -> Self {
            Self { distr, rng, _marker: PhantomData }
        }
    }

    impl<D, R, T> Iterator for DistIter<D, R, T>
    where
        D: Distribution<T>,
        R: RngCore,
    {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }
}

pub mod rngs {
    //! Provided generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Fast, passes the usual statistical batteries, and — unlike the
    /// upstream ChaCha-based `StdRng` — implementable in a few lines with no
    /// dependencies. Streams differ from upstream `rand`; all reproducibility
    /// in this repo is defined against this generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // xoshiro must not start from the all-zero state.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 0x6A09_E667_F3BC_C909, 0xBB67_AE85_84CA_A73B, 1];
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a = rng.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(2.0f64..4.0);
            assert!((2.0..4.0).contains(&c));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "gen_bool(0.3) hit {hits}/10000");
    }
}
