//! Minimal complex arithmetic used throughout the simulator.
//!
//! The simulator deliberately avoids external numerics crates; CSI values,
//! permittivities and channel responses are all [`Complex`] numbers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + j·im`.
///
/// # Examples
///
/// ```
/// use wimi_phy::complex::Complex;
///
/// let h = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((h.re).abs() < 1e-12);
/// assert!((h.im - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Unit phasor `e^{jθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    ///
    /// The branch cut follows the convention of `sqrt(r)·e^{jθ/2}` with
    /// `θ ∈ (-π, π]`, so the result always has a non-negative real part.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Does not panic; dividing by zero yields non-finite parts, mirroring
    /// `f64` semantics.
    #[inline]
    fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiply-by-inverse
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO + Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
        assert_eq!(Complex::from(3.5), Complex::new(3.5, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 1.1);
        assert!((z.abs() - 2.5).abs() < 1e-12);
        assert!((z.arg() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * PI / 8.0 - PI;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, -2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!(close(a + b - b, a));
        assert!(close(a * b / b, a));
        assert!(close(a * a.inv(), Complex::ONE));
        assert!(close(-(-a), a));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(0.3, 0.7);
        assert!(close(a.conj().conj(), a));
        assert!((a * a.conj()).im.abs() < 1e-15);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn exp_of_imaginary_is_rotation() {
        let z = Complex::new(0.0, FRAC_PI_2).exp();
        assert!(close(z, Complex::I));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -4.0)] {
            let z = Complex::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z), "sqrt({z}) = {r}");
            assert!(r.re >= -1e-12, "principal branch violated for {z}");
        }
    }

    #[test]
    fn scalar_multiplication_commutes() {
        let a = Complex::new(1.5, -0.5);
        assert!(close(2.0 * a, a * 2.0));
        assert!(close(a / 2.0, a * 0.5));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::cis(k as f64 * FRAC_PI_2)).sum();
        // 1 + j - 1 - j = 0
        assert!(total.abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Complex::ZERO).is_empty());
    }
}
