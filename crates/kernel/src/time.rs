//! Virtual time for the simulated kernel.
//!
//! All simulation time is expressed in microseconds of *virtual* wall-clock
//! time. One observer round spans `T` virtual seconds; each CPU core then has
//! `T * 1_000_000` microseconds of capacity to distribute over the
//! `/proc/stat` accounting categories.

/// Microseconds of virtual time.
///
/// A plain newtype over `u64` so that durations cannot be silently confused
/// with counters or percentages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Usecs(pub u64);

impl Usecs {
    /// Zero duration.
    pub const ZERO: Usecs = Usecs(0);

    /// Construct from whole virtual seconds.
    ///
    /// # Examples
    /// ```
    /// use torpedo_kernel::time::Usecs;
    /// assert_eq!(Usecs::from_secs(5).0, 5_000_000);
    /// ```
    pub const fn from_secs(secs: u64) -> Usecs {
        Usecs(secs * 1_000_000)
    }

    /// Construct from whole virtual milliseconds.
    pub const fn from_millis(ms: u64) -> Usecs {
        Usecs(ms * 1_000)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, rhs: Usecs) -> Usecs {
        Usecs(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Usecs) -> Usecs {
        Usecs(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative factor, rounding half away from zero and
    /// saturating on overflow.
    ///
    /// The result equals `(self.0 as f64 * factor).round() as u64`, but the
    /// rounding is integer work: truncate, then add one when the dropped
    /// fraction is at least one half. `f64::round` is a libm call, and this
    /// sits on the per-syscall path.
    #[must_use]
    pub fn scale(self, factor: f64) -> Usecs {
        debug_assert!(factor >= 0.0, "cannot scale a duration by {factor}");
        // Up to 2^53 the conversion to f64 is exact, so a unit factor
        // changes nothing.
        if factor == 1.0 && self.0 <= 1 << 53 {
            return self;
        }
        let product = self.0 as f64 * factor;
        // `as` truncates toward zero and saturates (NaN gives 0). Below
        // 2^53 the truncated value and the fraction are exact; above it
        // the product is already an integer.
        let whole = product as u64;
        if product - whole as f64 >= 0.5 {
            Usecs(whole.saturating_add(1))
        } else {
            Usecs(whole)
        }
    }
}

impl std::ops::Add for Usecs {
    type Output = Usecs;
    fn add(self, rhs: Usecs) -> Usecs {
        Usecs(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Usecs {
    fn add_assign(&mut self, rhs: Usecs) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Usecs {
    type Output = Usecs;
    fn sub(self, rhs: Usecs) -> Usecs {
        Usecs(self.0 - rhs.0)
    }
}

impl std::fmt::Display for Usecs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Usecs::from_secs(3), Usecs(3_000_000));
        assert_eq!(Usecs::from_millis(3), Usecs(3_000));
        assert_eq!(Usecs::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Usecs(100);
        let b = Usecs(50);
        assert_eq!(a + b, Usecs(150));
        assert_eq!(a - b, Usecs(50));
        assert_eq!(b.saturating_sub(a), Usecs::ZERO);
        assert_eq!(Usecs(u64::MAX).saturating_add(a), Usecs(u64::MAX));
    }

    #[test]
    fn scaling() {
        assert_eq!(Usecs(100).scale(2.5), Usecs(250));
        assert_eq!(Usecs(100).scale(0.0), Usecs::ZERO);
        // Ties round away from zero, as `f64::round` does.
        assert_eq!(Usecs(1).scale(0.5), Usecs(1));
        assert_eq!(Usecs(5).scale(0.5), Usecs(3));
        assert_eq!(Usecs(3).scale(0.5), Usecs(2));
        // Past u64::MAX the result saturates.
        assert_eq!(Usecs(u64::MAX).scale(2.0), Usecs(u64::MAX));
        assert_eq!(Usecs(u64::MAX).scale(1.0), Usecs(u64::MAX));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Usecs(10).to_string(), "10us");
        assert_eq!(Usecs(1_500).to_string(), "1.5ms");
        assert_eq!(Usecs(2_000_000).to_string(), "2.000s");
    }

    #[test]
    fn secs_f64() {
        assert!((Usecs::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-9);
    }
}
