//! Offline stand-in for `rand` 0.8: the traits and the sampling
//! algorithms this workspace's run path calls, transcribed from the
//! published 0.8.5 source (PCG32 seed expansion, widening-multiply integer
//! ranges, 23/52-bit mantissa floats, 64-bit Bernoulli) so that seeded
//! streams match it. The generator itself (`rand_chacha`) is pinned to
//! published vectors; this crate's seed expansion and samplers are not,
//! because the container has no network and no published values for them
//! are known by heart.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let v = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
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
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (the published crate's `Standard`
/// distribution).
pub trait StandardSample {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}
impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}
impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($ty:ty, $wide:ty, $next:ident) => {
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (*self.start(), *self.end());
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1);
                if range == 0 {
                    return rng.$next() as $ty;
                }
                // Accept the largest multiple of `range` below 2^bits.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $ty;
                    let wide = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((wide >> <$ty>::BITS) as $ty, wide as $ty);
                    if lo <= zone {
                        return low.wrapping_add(hi);
                    }
                }
            }
        }
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample_single(rng)
            }
        }
    };
}
int_range!(u32, u64, next_u32);
int_range!(u64, u128, next_u64);
int_range!(usize, u128, next_u64);

macro_rules! float_range {
    ($ty:ty, $bits:ty, $next:ident, $discard:expr, $exp_one:expr) => {
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (self.start, self.end);
                assert!(low < high, "cannot sample empty range");
                let scale = high - low;
                assert!(scale.is_finite(), "range overflow");
                loop {
                    // A float in [1, 2) from the top mantissa bits.
                    let value1_2 = <$ty>::from_bits((rng.$next() >> $discard) | $exp_one);
                    let res = (value1_2 - 1.0) * scale + low;
                    // Rounding can reach `high`; 0.8.5 draws again.
                    if res < high {
                        return res;
                    }
                }
            }
        }
    };
}
float_range!(f32, u32, next_u32, 9, 127u32 << 23);
float_range!(f64, u64, next_u64, 12, 1023u64 << 52);

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; `p_int` is the probability on a 64-bit scale.
        let p_int = (p * 2.0 * (1u64 << 63) as f64) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 ^ (self.0 >> 29)
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Counter(7);
        for _ in 0..10_000 {
            let f: f32 = r.gen_range(-0.5f32..0.25);
            assert!((-0.5..0.25).contains(&f));
            let u: usize = r.gen_range(3..11);
            assert!((3..11).contains(&u));
            let w: u64 = r.gen_range(0..=5u64);
            assert!(w <= 5);
        }
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }
}
