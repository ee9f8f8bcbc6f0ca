//! Dielectric material models.
//!
//! A material is characterised by its complex relative permittivity
//! `ε_r(ω) = ε' − jε''`, produced here by a single-pole Debye model with an
//! ionic-conductivity term (see [`DebyeModel`]). From the permittivity the
//! plane-wave propagation constants follow (see [`PropagationConstants`]):
//! the attenuation constant `α` (Np/m) and phase constant `β` (rad/m) that
//! the WiMi feature `Ω̄ = (α_tar − α_free)/(β_tar − β_free)` is built on
//! (paper Eq. 2–4 and 21).

mod catalog;
mod debye;
mod propagation;

pub use catalog::{ContainerMaterial, Liquid, SaltwaterConcentration, LIQUIDS};
pub use debye::DebyeModel;
pub use propagation::PropagationConstants;

use crate::units::Hertz;

/// Complex relative permittivity `ε_r = ε' − jε''` at a single frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Permittivity {
    /// Real part ε' (dielectric constant), dimensionless, ≥ 1 for passive media.
    pub real: f64,
    /// Imaginary part ε'' (loss factor), dimensionless, ≥ 0 for lossy media.
    pub imag: f64,
}

impl Permittivity {
    /// Relative permittivity of air (to numerical precision, vacuum).
    pub const AIR: Permittivity = Permittivity {
        real: 1.000_536,
        imag: 0.0,
    };

    /// Creates a permittivity; `real` is ε', `imag` is ε'' (positive = lossy).
    ///
    /// # Panics
    ///
    /// Panics if `real < 1.0` or `imag < 0.0` — passive materials cannot
    /// have sub-unity dielectric constants or negative loss.
    pub fn new(real: f64, imag: f64) -> Self {
        assert!(real >= 1.0, "dielectric constant must be >= 1, got {real}");
        assert!(imag >= 0.0, "loss factor must be >= 0, got {imag}");
        Permittivity { real, imag }
    }

    /// Loss tangent `tan δ = ε''/ε'`.
    #[inline]
    pub fn loss_tangent(self) -> f64 {
        self.imag / self.real
    }
}

/// A material whose permittivity can be evaluated at any frequency.
///
/// Implemented by [`DebyeModel`] (dispersive liquids) and by
/// [`ConstantPermittivity`] (solids like glass whose dispersion is
/// negligible over a 20 MHz Wi-Fi channel).
pub trait Dielectric {
    /// Complex relative permittivity at frequency `f`.
    fn permittivity(&self, f: Hertz) -> Permittivity;

    /// Plane-wave propagation constants at frequency `f`.
    fn propagation(&self, f: Hertz) -> PropagationConstants {
        PropagationConstants::from_permittivity(self.permittivity(f), f)
    }
}

/// A non-dispersive dielectric described by a fixed `(ε', ε'')`.
///
/// # Examples
///
/// ```
/// use wimi_phy::material::{ConstantPermittivity, Dielectric};
/// use wimi_phy::units::Hertz;
///
/// let glass = ConstantPermittivity::new(5.5, 0.03);
/// let pc = glass.propagation(Hertz::from_ghz(5.24));
/// assert!(pc.beta > 0.0 && pc.alpha > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantPermittivity {
    eps: Permittivity,
}

impl ConstantPermittivity {
    /// Creates a non-dispersive dielectric from `(ε', ε'')`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Permittivity::new`].
    pub fn new(real: f64, imag: f64) -> Self {
        ConstantPermittivity {
            eps: Permittivity::new(real, imag),
        }
    }
}

impl Dielectric for ConstantPermittivity {
    fn permittivity(&self, _f: Hertz) -> Permittivity {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_tangent_definition() {
        let eps = Permittivity::new(50.0, 10.0);
        assert!((eps.loss_tangent() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dielectric constant")]
    fn rejects_subunity_real_part() {
        let _ = Permittivity::new(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss factor")]
    fn rejects_negative_loss() {
        let _ = Permittivity::new(2.0, -0.1);
    }

    #[test]
    fn air_is_nearly_lossless() {
        assert!(Permittivity::AIR.imag.abs() < f64::EPSILON);
        assert!((Permittivity::AIR.real - 1.0).abs() < 1e-3);
    }

    #[test]
    fn constant_permittivity_is_frequency_flat() {
        let m = ConstantPermittivity::new(5.5, 0.03);
        let a = m.permittivity(Hertz::from_ghz(2.4));
        let b = m.permittivity(Hertz::from_ghz(5.8));
        assert_eq!(a, b);
    }
}
