//! Offline stand-in for the `rand` crate, API-compatible with the subset
//! PIP uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and the `Rng`
//! methods `gen`, `gen_range`, `gen_bool`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — fully
//! deterministic and platform-independent, which is what PIP's
//! reproducibility story (per-variable seed derivation, bit-stable
//! parallel sampling) actually depends on. It makes no attempt to match
//! the stream of the real `rand::rngs::StdRng`.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// Deterministic xoshiro256++ generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding recipe.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }

        /// Snapshot of the full 256-bit generator state. Two generators
        /// with equal states produce identical streams forever, so tests
        /// compare states to show that two samplers consumed exactly the
        /// same draws.
        #[inline]
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        #[inline]
        pub(crate) fn next(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Seeding constructor trait (the only entry point PIP uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64(seed)
    }
}

/// Types producible by `Rng::gen()`.
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Range types accepted by `Rng::gen_range`.
pub trait SampleRange {
    type Output;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty gen_range");
        let u: f64 = Standard::sample(rng);
        // Scale by the next-up of 1.0's reciprocal so `hi` is reachable.
        lo + u * (hi - lo)
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                // Multiply-shift bounded draw (Lemire); bias is < 2^-64.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + hi as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}
int_range!(i64, u64, i32, u32, usize);

/// The user-facing generator trait.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    #[inline]
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = self.gen();
        u < p
    }
}

impl Rng for rngs::StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = rngs::StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = r.gen_range(-3.0..7.0);
            assert!((-3.0..7.0).contains(&x));
            let n = r.gen_range(5i64..9);
            assert!((5..9).contains(&n));
            let m = r.gen_range(2usize..=4);
            assert!((2..=4).contains(&m));
        }
        assert!((0..1000).map(|_| r.gen_bool(0.25) as u32).sum::<u32>() < 400);
    }
}
