//! A small, self-contained deterministic PRNG.
//!
//! The workspace is dependency-free by design (see DESIGN.md §6), so the
//! simulator ships its own generator instead of pulling in `rand`:
//! xoshiro256++ seeded through SplitMix64, the standard pairing recommended
//! by the xoshiro authors. It is fast (four u64 of state, a handful of
//! shifts per draw), passes BigCrush, and — most importantly here — its
//! streams are stable across platforms and releases, which is what makes
//! simulation runs and sweep reports byte-reproducible.
//!
//! The API mirrors the subset of `rand` the workspace used: seeding from a
//! `u64`, uniform ranges over the integer types, `f64` in `[0, 1)`, and a
//! Bernoulli draw.

use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256++ generator.
///
/// ```
/// use manet_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(10..=20u64);
/// assert!((10..=20).contains(&x));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
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

    /// Uniform draw from a range; see [`UniformRange`] for the supported
    /// range types.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform draw from `[0, bound)` without modulo bias (Lemire's
    /// widening-multiply rejection method).
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection zone keeps the multiply-shift map exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Range types [`SimRng::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The element type produced.
    type Output;
    /// Draw one uniform value.
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

fn sample_u64(rng: &mut SimRng, lo: u64, hi_inclusive: u64) -> u64 {
    assert!(lo <= hi_inclusive, "empty range");
    let span = hi_inclusive - lo;
    if span == u64::MAX {
        return rng.next_u64();
    }
    lo + rng.bounded(span + 1)
}

impl UniformRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut SimRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        sample_u64(rng, self.start, self.end - 1)
    }
}

impl UniformRange for RangeInclusive<u64> {
    type Output = u64;
    fn sample(self, rng: &mut SimRng) -> u64 {
        sample_u64(rng, *self.start(), *self.end())
    }
}

impl UniformRange for Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut SimRng) -> u32 {
        assert!(self.start < self.end, "empty range");
        sample_u64(rng, u64::from(self.start), u64::from(self.end) - 1) as u32
    }
}

impl UniformRange for RangeInclusive<u32> {
    type Output = u32;
    fn sample(self, rng: &mut SimRng) -> u32 {
        sample_u64(rng, u64::from(*self.start()), u64::from(*self.end())) as u32
    }
}

impl UniformRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SimRng) -> usize {
        assert!(self.start < self.end, "empty range");
        sample_u64(rng, self.start as u64, self.end as u64 - 1) as usize
    }
}

impl UniformRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SimRng) -> usize {
        sample_u64(rng, *self.start() as u64, *self.end() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        let mut c = SimRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn known_answer_is_stable() {
        // Pin the stream so accidental algorithm changes (which would
        // silently re-randomize every experiment) fail loudly.
        let mut r = SimRng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0x5317_5D61_490B_23DF);
        // The exact value depends only on splitmix64 + xoshiro256++, both
        // fixed algorithms; recompute by hand if this ever needs updating.
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let x = r.gen_range(10..20u64);
            assert!((10..20).contains(&x));
            let y = r.gen_range(5..=5u64);
            assert_eq!(y, 5);
            let z = r.gen_range(0..3u32);
            assert!(z < 3);
            let w = r.gen_range(0..7usize);
            assert!(w < 7);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_draws_hit_every_value() {
        let mut r = SimRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[r.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SimRng::seed_from_u64(1);
        let _ = r.gen_range(5..5u64);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SimRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }
}
