//! Plane-wave propagation constants from complex permittivity.

use super::Permittivity;
use crate::constants::SPEED_OF_LIGHT;
use crate::units::{Hertz, Meters};

/// Attenuation constant `α` (Np/m) and phase constant `β` (rad/m) of a
/// uniform plane wave in a lossy dielectric.
///
/// For non-magnetic media (`μ = μ₀`) with `ε = ε₀(ε' − jε'')`:
///
/// - `α = (ω/c)·√(ε'/2)·√(√(1 + tan²δ) − 1)`
/// - `β = (ω/c)·√(ε'/2)·√(√(1 + tan²δ) + 1)`
///
/// These are the `α_tar`/`β_tar` of paper Eq. (2)–(4); the material feature
/// `Ω̄` (Eq. 21) is their normalised contrast against air, exposed here as
/// [`PropagationConstants::material_feature`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationConstants {
    /// Attenuation constant, nepers per metre.
    pub alpha: f64,
    /// Phase constant, radians per metre.
    pub beta: f64,
}

impl PropagationConstants {
    /// Computes `(α, β)` from the complex relative permittivity at `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not positive.
    pub fn from_permittivity(eps: Permittivity, f: Hertz) -> Self {
        assert!(f.value() > 0.0, "frequency must be positive");
        let k0 = f.angular() / SPEED_OF_LIGHT; // free-space wavenumber ω/c
        let tan_d = eps.loss_tangent();
        let root = (1.0 + tan_d * tan_d).sqrt();
        let scale = k0 * (eps.real / 2.0).sqrt();
        PropagationConstants {
            alpha: scale * (root - 1.0).sqrt(),
            beta: scale * (root + 1.0).sqrt(),
        }
    }

    /// Propagation constants of air at `f` (essentially `α = 0`, `β = ω/c`).
    pub fn air(f: Hertz) -> Self {
        Self::from_permittivity(Permittivity::AIR, f)
    }

    /// Wavelength inside the medium, `λ = 2π/β`.
    pub fn wavelength(self) -> Meters {
        Meters(2.0 * std::f64::consts::PI / self.beta)
    }

    /// The ground-truth WiMi material feature
    /// `Ω̄ = (α − α_air)/(β − β_air)` at the same frequency (paper Eq. 21,
    /// written here with both sign conventions collapsed to a positive
    /// ratio for lossy-dense media).
    ///
    /// # Panics
    ///
    /// Panics if the material is indistinguishable from air in phase
    /// constant (`β ≈ β_air`), for which the feature is undefined.
    pub fn material_feature(self, air: PropagationConstants) -> f64 {
        let d_beta = self.beta - air.beta;
        assert!(
            d_beta.abs() > 1e-9,
            "material feature undefined: beta equals air's"
        );
        (self.alpha - air.alpha) / d_beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{DebyeModel, Dielectric};

    const F: Hertz = Hertz(5.24e9);

    #[test]
    fn air_has_negligible_attenuation() {
        let pc = PropagationConstants::air(F);
        assert!(pc.alpha.abs() < 1e-9);
        let k0 = F.angular() / SPEED_OF_LIGHT;
        assert!((pc.beta - k0).abs() / k0 < 1e-3);
    }

    #[test]
    fn lossless_medium_beta_scales_with_sqrt_eps() {
        let eps = Permittivity::new(4.0, 0.0);
        let pc = PropagationConstants::from_permittivity(eps, F);
        let k0 = F.angular() / SPEED_OF_LIGHT;
        assert!((pc.beta - 2.0 * k0).abs() / k0 < 1e-12);
        assert_eq!(pc.alpha, 0.0);
    }

    #[test]
    fn water_constants_at_5ghz() {
        let pc = DebyeModel::pure_water().propagation(F);
        // Expected: β ≈ 940 rad/m, α ≈ 110 Np/m (order-of-magnitude physics check).
        assert!(pc.beta > 800.0 && pc.beta < 1100.0, "beta = {}", pc.beta);
        assert!(pc.alpha > 80.0 && pc.alpha < 160.0, "alpha = {}", pc.alpha);
    }

    #[test]
    fn wavelength_shrinks_in_dense_media() {
        let water = DebyeModel::pure_water().propagation(F);
        let air = PropagationConstants::air(F);
        assert!(water.wavelength().value() < air.wavelength().value() / 7.0);
    }

    #[test]
    fn material_feature_matches_hand_computation() {
        let air = PropagationConstants::air(F);
        let water = DebyeModel::pure_water().propagation(F);
        let omega = water.material_feature(air);
        let expect = (water.alpha - air.alpha) / (water.beta - air.beta);
        assert!((omega - expect).abs() < 1e-15);
        assert!(omega > 0.05 && omega < 0.25, "omega = {omega}");
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn material_feature_rejects_airlike_media() {
        let air = PropagationConstants::air(F);
        let _ = air.material_feature(air);
    }

    #[test]
    fn more_loss_means_more_alpha_same_scale_beta() {
        let low = PropagationConstants::from_permittivity(Permittivity::new(70.0, 5.0), F);
        let high = PropagationConstants::from_permittivity(Permittivity::new(70.0, 30.0), F);
        assert!(high.alpha > 5.0 * low.alpha);
        assert!((high.beta - low.beta).abs() / low.beta < 0.05);
    }
}
