//! # rng — the workspace's one random stream
//!
//! xoshiro256++ (Blackman & Vigna) seeded through splitmix64. Every initial
//! condition (`sph::{ic, nbody}`) and every seeded test draws from it, so a
//! `state_digest` is a function of this file and not of a dependency's
//! release notes. The draws are fixed for good — `tests::known_answers` and
//! `sph::ic`'s digests fail if one moves.
//!
//! ```
//! let mut g = rng::Rng::seed_from_u64(1);
//! assert_eq!(g.next_u64(), 0xcfc5_d07f_6f03_c29b);
//! assert!((1..=2).contains(&g.i32(1..=2)));
//! assert!((-1.0..1.0).contains(&g.f64(-1.0..1.0)));
//! ```

use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A seeded xoshiro256++ stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expand `seed` into the 256-bit state with splitmix64, the reference
    /// seeding procedure.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *word = z ^ (z >> 31);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the half-open `range`, one draw.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        let x = range.start + (range.end - range.start) * self.unit();
        // Rounding can land on the excluded end point.
        if x < range.end {
            x
        } else {
            range.start
        }
    }

    /// A fair coin: the top bit of one draw.
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform in `[0, span)` by widening multiply (bias < 2^-64 · span).
    fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

macro_rules! int_draws {
    ($($t:ident),*) => {impl Rng {$(
        /// Uniform over an integer `lo..hi` or `lo..=hi`, one draw.
        pub fn $t(&mut self, range: impl RangeBounds<$t>) -> $t {
            let lo = match range.start_bound() {
                Bound::Included(&lo) => lo,
                Bound::Excluded(&lo) => lo.checked_add(1).expect("empty range"),
                Bound::Unbounded => $t::MIN,
            };
            let hi = match range.end_bound() {
                Bound::Included(&hi) => hi,
                Bound::Excluded(&hi) => hi.checked_sub(1).expect("empty range"),
                Bound::Unbounded => $t::MAX,
            };
            assert!(lo <= hi, "empty range");
            let span = (hi as i128 - lo as i128) as u64;
            let offset = match span.checked_add(1) {
                Some(s) => self.below(s),
                None => self.next_u64(),
            };
            (lo as i128 + offset as i128) as $t
        }
    )*}};
}
int_draws!(i32, u32, u64, usize);

/// Run `property` on `n` generated cases, case `k` drawing from
/// `Rng::seed_from_u64(k)`. The first failing case panics again under its
/// index (its own message is already on stderr), so one line replays it.
/// No shrinking.
#[track_caller]
pub fn cases(n: u64, mut property: impl FnMut(&mut Rng)) {
    for k in 0..n {
        let mut g = Rng::seed_from_u64(k);
        if catch_unwind(AssertUnwindSafe(|| property(&mut g))).is_err() {
            panic!("property failed at case {k} of {n}: replay with Rng::seed_from_u64({k})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        let mut g = Rng::seed_from_u64(1);
        let first: [u64; 3] = std::array::from_fn(|_| g.next_u64());
        assert_eq!(
            first,
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520
            ]
        );
        let mut g = Rng::seed_from_u64(77);
        assert_eq!(g.i32(1..=2), 1);
        assert_eq!(g.unit().to_bits(), 0x3fe6_3e1d_df03_fe37);
        assert_eq!(g.f64(-1.0..1.0).to_bits(), 0x3fe9_387b_c2ff_3c56);
    }

    #[test]
    fn f64_ranges_never_return_the_excluded_end() {
        let mut g = Rng::seed_from_u64(3);
        let one_ulp = 1.0..f64::from_bits(1.0f64.to_bits() + 1);
        for _ in 0..10_000 {
            assert!((1e-8..1.0).contains(&g.f64(1e-8..1.0)));
            assert_eq!(g.f64(one_ulp.clone()), 1.0);
        }
    }

    #[test]
    fn integer_ranges_cover_their_span_without_overflow() {
        let mut g = Rng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[(g.i32(-3..=3) + 3) as usize] = true;
            // `lo..hi` and `lo..=hi - 1` are the same draw.
            assert_eq!(g.clone().usize(2..40), g.usize(2..=39));
            assert_eq!(g.u32(4..5), 4);
        }
        assert_eq!(seen, [true; 7]);
        // A full-width span has no `span + 1`: the raw draw is the answer.
        let mut h = g.clone();
        assert_eq!(g.u64(0..=u64::MAX), h.next_u64());
    }

    #[test]
    fn cases_seeds_each_case_with_its_index() {
        let mut firsts = Vec::new();
        cases(4, |g| firsts.push(g.next_u64()));
        let want: Vec<u64> = (0..4).map(|k| Rng::seed_from_u64(k).next_u64()).collect();
        assert_eq!(firsts, want);
    }

    #[test]
    #[should_panic(expected = "case 3 of 8")]
    fn cases_names_the_failing_case() {
        let mut k = 0;
        cases(8, |_| {
            assert!(k != 3, "the property's own message");
            k += 1;
        });
    }
}
