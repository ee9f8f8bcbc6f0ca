//! Unit newtypes for physical quantities.
//!
//! These wrappers keep metres, hertz and seconds from being confused at API
//! boundaries (C-NEWTYPE). Arithmetic that makes dimensional sense is
//! provided; anything else requires going through the raw `f64`.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw value in base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// Returns `true` when the value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Debug-checked constructor used by the arithmetic impls:
            /// NaN/Inf contamination is caught where it is produced in
            /// debug/test builds instead of surfacing as a downstream
            /// `IssueKind`.
            #[inline]
            #[track_caller]
            fn finite(v: f64) -> Self {
                debug_assert!(
                    v.is_finite(),
                    concat!(stringify!($name), " arithmetic produced a non-finite value")
                );
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name::finite(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name::finite(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name::finite(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name::finite(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name::finite(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name::finite(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

unit!(
    /// A length in metres.
    ///
    /// ```
    /// use wimi_phy::units::Meters;
    /// let spacing = Meters::from_cm(2.9);
    /// assert!((spacing.value() - 0.029).abs() < 1e-12);
    /// ```
    Meters,
    "m"
);

unit!(
    /// A frequency in hertz.
    ///
    /// ```
    /// use wimi_phy::units::Hertz;
    /// assert_eq!(Hertz::from_ghz(5.24).value(), 5.24e9);
    /// ```
    Hertz,
    "Hz"
);

unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);

impl Meters {
    /// Builds a length from centimetres.
    #[inline]
    pub fn from_cm(cm: f64) -> Self {
        Meters(cm / 100.0)
    }

    /// Builds a length from millimetres.
    #[inline]
    pub fn from_mm(mm: f64) -> Self {
        Meters(mm / 1000.0)
    }

    /// Converts to centimetres.
    #[inline]
    pub fn to_cm(self) -> f64 {
        self.0 * 100.0
    }
}

impl Hertz {
    /// Builds a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Builds a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Angular frequency `ω = 2πf` in rad/s.
    #[inline]
    pub fn angular(self) -> f64 {
        2.0 * std::f64::consts::PI * self.0
    }

    /// Free-space wavelength `λ = c/f`.
    #[inline]
    pub fn wavelength(self) -> Meters {
        Meters(crate::constants::SPEED_OF_LIGHT / self.0)
    }
}

impl Seconds {
    /// Builds a duration from picoseconds.
    #[inline]
    pub fn from_ps(ps: f64) -> Self {
        Seconds(ps * 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_conversions() {
        assert!((Meters::from_cm(150.0).value() - 1.5).abs() < 1e-12);
        assert!((Meters::from_mm(5.0).value() - 0.005).abs() < 1e-12);
        assert!((Meters(0.143).to_cm() - 14.3).abs() < 1e-12);
    }

    #[test]
    fn hertz_conversions() {
        let f = Hertz::from_ghz(5.0);
        assert_eq!(f.value(), 5e9);
        assert!((Hertz::from_mhz(20.0).value() - 2e7).abs() < 1e-6);
    }

    #[test]
    fn wavelength_at_5ghz_is_about_6cm() {
        let lambda = Hertz::from_ghz(5.0).wavelength();
        assert!((lambda.value() - 0.05996).abs() < 1e-4, "{lambda}");
    }

    #[test]
    fn angular_frequency() {
        let w = Hertz(1.0).angular();
        assert!((w - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_on_units() {
        let a = Meters(2.0) + Meters(0.5) - Meters(1.0);
        assert!((a.value() - 1.5).abs() < 1e-12);
        assert!(((Meters(3.0) / Meters(1.5)) - 2.0).abs() < 1e-12);
        assert!(((2.0 * Meters(1.5)).value() - 3.0).abs() < 1e-12);
        assert!(((-Meters(1.0)).value() + 1.0).abs() < 1e-12);
        assert!((Meters(-2.0).abs().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_helpers() {
        assert!((Seconds::from_ps(8.27).value() - 8.27e-12).abs() < 1e-24);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Meters(1.5).to_string(), "1.5 m");
        assert_eq!(Hertz(2.0).to_string(), "2 Hz");
    }
}
