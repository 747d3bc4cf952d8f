//! Deterministic, seedable PRNG: xoshiro256\*\* seeded via splitmix64.
//!
//! Not cryptographic — this is a test/workload generator. The API is
//! the small slice of `rand` the workspace actually uses
//! (`seed_from_u64`, `gen_range`, `gen_bool`, raw draws, shuffling), so
//! migrating call sites is mechanical.

/// One step of splitmix64: the recommended seeder for xoshiro state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash.
///
/// The workspace's domain-separation convention for deriving
/// independent PRNG streams from one master seed: hash a stream label
/// (a site name, a chip id, an epoch tag) and XOR it into the seed, so
/// distinct streams can never collide structurally the way ad-hoc
/// `seed ^ constant` derivations can. The fault plane seeds per-site
/// generators as `seed ^ fnv1a64(site_name)`; the fleet simulator
/// seeds per-chip trajectories as `seed ^ fnv1a64(chip_id)`. The
/// serving pool also keys sessions by `fnv1a64(canonical BLIF)`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a raw 64-bit draw to an index in `[0, n)` without modulo bias
/// (Lemire's widening-multiply method, single pass).
#[inline]
pub fn map_index(raw: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((raw as u128 * n as u128) >> 64) as u64
}

/// Maps a raw 64-bit draw to a float in `[0, 1)` with 53 random bits.
#[inline]
pub fn map_unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seedable xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use tm_testkit::rng::Rng;
/// let mut rng = Rng::seed_from_u64(42);
/// let a = rng.gen_range(0..10usize);
/// assert!(a < 10);
/// let b = rng.gen_range(0.0..1.0);
/// assert!((0.0..1.0).contains(&b));
/// // Deterministic in the seed.
/// assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands a 64-bit seed into the full 256-bit state via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit draw (xoshiro256\*\*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniformly random bool.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        // Top bit: the high bits of xoshiro256** are the best-mixed.
        self.next_u64() >> 63 == 1
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        map_unit_f64(self.next_u64())
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform sample from the range (`Range` / `RangeInclusive` over
    /// the integer types the workspace uses, plus `f64`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(&mut || self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = map_index(self.next_u64(), (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }
}

/// Ranges that [`Rng::gen_range`] (and the property runner's
/// [`crate::prop::Gen`]) can sample from a stream of raw `u64` draws.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws a uniform sample, pulling raw 64-bit words from `raw`.
    fn sample_from(self, raw: &mut dyn FnMut() -> u64) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, raw: &mut dyn FnMut() -> u64) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(map_index(raw(), span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, raw: &mut dyn FnMut() -> u64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every u64 is valid.
                    return lo.wrapping_add(raw() as $t);
                }
                lo.wrapping_add(map_index(raw(), span) as $t)
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, raw: &mut dyn FnMut() -> u64) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + map_unit_f64(raw()) * (self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, raw: &mut dyn FnMut() -> u64) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        lo + map_unit_f64(raw()) * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(124);
        assert_ne!(Rng::seed_from_u64(123).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..1000 {
            let u = rng.gen_range(3..17usize);
            assert!((3..17).contains(&u));
            let f = rng.gen_range(-0.25..=0.25);
            assert!((-0.25..=0.25).contains(&f));
            let g = rng.gen_range(2.0..5.0);
            assert!((2.0..5.0).contains(&g));
            let i = rng.gen_range(0u64..1);
            assert_eq!(i, 0);
        }
    }

    #[test]
    fn gen_bool_probability_is_roughly_right() {
        let mut rng = Rng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_f64_is_half_open() {
        let mut rng = Rng::seed_from_u64(77);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::seed_from_u64(2);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.choose(&items).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(rng.choose::<u8>(&[]).is_none());
    }
}
