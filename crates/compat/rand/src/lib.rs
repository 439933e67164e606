//! Offline, API-compatible subset of the `rand` crate.
//!
//! This workspace builds in an environment without crates.io access, so the
//! real `rand` cannot be fetched. This shim provides exactly the surface the
//! MOHECO reproduction uses — [`Rng`] (`gen`, `gen_range`, `gen_bool`),
//! [`SeedableRng`] (`seed_from_u64`, `from_seed`) and [`rngs::StdRng`] — with
//! the same semantics (half-open/inclusive ranges, `[0, 1)` floats, at least
//! one mutated crossover component, …).
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 (the reference seeding procedure recommended by its authors).
//! It is *not* bit-compatible with upstream `rand`'s ChaCha-based `StdRng`,
//! but every consumer in this workspace only relies on seeded determinism,
//! not on a particular stream, so the swap is behaviour-preserving at the
//! level the tests and experiments observe.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
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
        (**self).fill_bytes(dest)
    }
}

/// Distributions and the helpers [`Rng::gen`] relies on.
pub mod distributions {
    use super::Rng;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value from the distribution.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "standard" distribution: uniform over the natural domain of the
    /// type (`[0, 1)` for floats, all values for integers, fair coin for
    /// `bool`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits -> uniform in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Distribution<i64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
            rng.next_u64() as i64
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Types over which `gen_range` can sample uniformly.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }

            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

/// Maps a 64-bit draw onto `[0, span)` by plain modulo (`span >= 1`). The
/// modulo bias over the small spans this workspace draws from is below
/// 2^-40 and irrelevant to its stochastic algorithms.
///
/// Every span of a 64-bit or narrower type fits in 64 bits except the full
/// inclusive range, `span == 2^64`; those take the cheaper `u64` division,
/// which equals the 128-bit modulo bit for bit.
fn reduce(bits: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(narrow) => (bits % narrow) as u128,
        Err(_) => bits as u128 % span,
    }
}

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let u = unit_f64(rng.next_u64());
                let v = lo as f64 + (hi as f64 - lo as f64) * u;
                // Guard against rounding landing exactly on `hi`.
                if v >= hi as f64 { <$t>::from_f64_lossy(lo as f64) } else { <$t>::from_f64_lossy(v) }
            }

            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let u = unit_f64(rng.next_u64());
                <$t>::from_f64_lossy(lo as f64 + (hi as f64 - lo as f64) * u)
            }
        }
    )*};
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Lossy conversion helper so the float macro can cover `f32` and `f64`.
trait FromF64Lossy {
    fn from_f64_lossy(v: f64) -> Self;
}

impl FromF64Lossy for f64 {
    fn from_f64_lossy(v: f64) -> Self {
        v
    }
}

impl FromF64Lossy for f32 {
    fn from_f64_lossy(v: f64) -> Self {
        v as f32
    }
}

impl_sample_uniform_float!(f64, f32);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// User-facing random-number-generation methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value from the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Draws a uniform value from `range` (half-open or inclusive).
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen::<f64>() < p
    }

    /// Draws a value from an explicit distribution.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs that can be instantiated from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Creates an RNG from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates an RNG from a 64-bit seed, expanding it with SplitMix64
    /// exactly like upstream `rand`'s default implementation.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded RNG: xoshiro256++.
    ///
    /// Chosen for its tiny state, excellent statistical quality and trivial
    /// portability; every use in this workspace is behind a fixed seed, so
    /// bit-compatibility with upstream `rand` is not required.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is the one fixed point of xoshiro; nudge it.
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9E37_79B9_7F4A_7C15;
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
    fn seeded_streams_are_reproducible_and_distinct() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_mean_is_near_half() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = rng.gen_range(2usize..5);
            assert!((2..5).contains(&v));
            let w = rng.gen_range(0usize..=1);
            seen_lo |= w == 0;
            seen_hi |= w == 1;
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(seen_lo && seen_hi, "inclusive range must reach both ends");
    }

    #[test]
    fn narrow_modulo_equals_the_wide_formula() {
        let mut rng = StdRng::seed_from_u64(13);
        for span in [1u128, 2, 50, 1 << 32, 1 << 63] {
            for _ in 0..10_000 {
                let bits = rng.next_u64();
                assert_eq!(
                    super::reduce(bits, span),
                    bits as u128 % span,
                    "span {span}"
                );
            }
        }
        // The full inclusive range is 2^64 wide: it keeps the 128-bit path
        // (a truncated span would divide by zero) and returns the draw.
        let mut a = StdRng::seed_from_u64(17);
        let mut b = a.clone();
        for _ in 0..1_000 {
            assert_eq!(a.gen_range(0..=u64::MAX), b.next_u64());
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 50_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn works_through_mut_references() {
        fn take<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            let r: &mut R = rng;
            r.gen()
        }
        let mut rng = StdRng::seed_from_u64(9);
        let v = take(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
