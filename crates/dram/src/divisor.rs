//! Exact division by a divisor fixed at run time, without a hardware
//! divide.
//!
//! The burst path divides by the same few values over and over: the
//! refresh window and group count of the device, and the round time of
//! one burst. A [`Divisor`] precomputes `m = ⌊(2⁶⁴ − 1) / d⌋` once; the
//! high word of `x · m` then undershoots `⌊x / d⌋` by at most one, and one
//! compare of the remainder corrects it. Every result is exact for every
//! `u64` dividend.

/// A `u64` divisor with its reciprocal precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    m: u64,
}

impl Divisor {
    /// Precomputes division by `d` (one hardware division).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) const fn new(d: u64) -> Self {
        assert!(d != 0, "division by zero");
        Divisor { d, m: u64::MAX / d }
    }

    /// The divisor itself.
    #[inline]
    pub(crate) const fn get(self) -> u64 {
        self.d
    }

    /// `(x / d, x % d)`.
    ///
    /// Writing `2⁶⁴ − 1 = m·d + s` with `s < d`, the estimate
    /// `⌊x·m / 2⁶⁴⌋` equals `⌊x/d − x(s + 1)/(d·2⁶⁴)⌋`, and the subtracted
    /// term lies in `[0, 1)` because `x < 2⁶⁴` and `s + 1 ≤ d`. So the
    /// estimate is the quotient or one less, and its remainder is below
    /// `2d`.
    #[inline]
    pub(crate) fn div_rem(self, x: u64) -> (u64, u64) {
        let q = ((u128::from(x) * u128::from(self.m)) >> 64) as u64;
        let r = x - q * self.d;
        if r >= self.d {
            (q + 1, r - self.d)
        } else {
            (q, r)
        }
    }

    /// `x / d`.
    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        self.div_rem(x).0
    }

    /// `x % d`.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        self.div_rem(x).1
    }

    /// `x.div_ceil(d)`.
    #[inline]
    pub(crate) fn div_ceil(self, x: u64) -> u64 {
        let (q, r) = self.div_rem(x);
        q + u64::from(r != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DramTiming;
    use rand::{Rng, SeedableRng};

    /// Checks `div`, `rem`, `div_rem` and `div_ceil` against the hardware
    /// operators at one dividend.
    fn check(d: u64, x: u64) {
        let div = Divisor::new(d);
        assert_eq!(div.div_rem(x), (x / d, x % d), "{x} / {d}");
        assert_eq!(div.div(x), x / d, "{x} / {d}");
        assert_eq!(div.rem(x), x % d, "{x} % {d}");
        assert_eq!(div.div_ceil(x), x.div_ceil(d), "{x} div_ceil {d}");
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let ddr3 = DramTiming::ddr3_1600();
        let scaled = ddr3.with_refresh_scale(0.37);
        let mut divisors = vec![
            1,
            ddr3.refresh_window(),
            scaled.refresh_window(),
            u64::from(ddr3.refresh_groups),
            ddr3.t_refi,
            u64::MAX,
            u64::MAX - 1,
            (1 << 63) + 1,
        ];
        divisors.extend((0..64).map(|k| 1u64 << k));
        divisors.extend((2..=8).map(|fan| fan * ddr3.t_rc));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1_7150);
        divisors.extend((0..64).map(|_| rng.gen_range(1..=u64::MAX)));
        divisors.extend((0..64).map(|_| rng.gen_range(1..1u64 << 32)));
        for &d in &divisors {
            let mut xs = vec![0, 1, d - 1, d, u64::MAX, u64::MAX - 1, u64::MAX - d + 1];
            for k in [2u64, 3, 7, 1000, u64::MAX / d, u64::MAX / d - 1] {
                let Some(kd) = k.checked_mul(d) else { continue };
                xs.extend([kd.wrapping_sub(1), kd, kd.wrapping_add(1)]);
            }
            xs.extend((0..200).map(|_| rng.gen::<u64>()));
            xs.extend((0..200).map(|_| rng.gen_range(0..d.saturating_mul(4).max(1))));
            for x in xs {
                check(d, x);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divisor_rejects_zero() {
        Divisor::new(0);
    }
}
