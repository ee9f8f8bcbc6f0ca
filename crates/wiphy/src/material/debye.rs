//! Single-pole Debye relaxation model with ionic conductivity.

use super::{Dielectric, Permittivity};
use crate::constants::VACUUM_PERMITTIVITY;
use crate::units::{Hertz, Seconds};

/// Single-pole Debye dielectric relaxation:
///
/// `ε_r(ω) = ε_∞ + (ε_s − ε_∞)/(1 + jωτ) − j·σ/(ω·ε₀)`
///
/// This captures water-based liquids at microwave frequencies well: the
/// orientational polarisation of the water dipole relaxes with time constant
/// `τ ≈ 8.3 ps` at room temperature, and dissolved ions add a conductivity
/// loss `σ/(ωε₀)` that dominates ε'' for salty liquids (saltwater, soy
/// sauce). All ten WiMi liquids are encoded with this model in
/// `catalog`.
///
/// # Examples
///
/// ```
/// use wimi_phy::material::{DebyeModel, Dielectric};
/// use wimi_phy::units::Hertz;
///
/// let water = DebyeModel::pure_water();
/// let eps = water.permittivity(Hertz::from_ghz(5.0));
/// // Literature: ε' ≈ 73, ε'' ≈ 18 at 5 GHz, 25 °C.
/// assert!((eps.real - 73.0).abs() < 2.0);
/// assert!((eps.imag - 18.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebyeModel {
    /// Static (low-frequency) relative permittivity ε_s.
    pub eps_static: f64,
    /// High-frequency relative permittivity ε_∞.
    pub eps_infinity: f64,
    /// Relaxation time τ.
    pub relaxation: Seconds,
    /// Ionic conductivity σ, S/m.
    pub conductivity: f64,
}

impl DebyeModel {
    /// Creates a Debye model.
    ///
    /// # Panics
    ///
    /// Panics if `eps_static < eps_infinity`, either permittivity is below
    /// 1, the relaxation time is non-positive, or the conductivity is
    /// negative.
    pub fn new(eps_static: f64, eps_infinity: f64, relaxation: Seconds, conductivity: f64) -> Self {
        assert!(
            eps_static >= eps_infinity,
            "static permittivity ({eps_static}) must be >= high-frequency permittivity ({eps_infinity})"
        );
        assert!(eps_infinity >= 1.0, "eps_infinity must be >= 1");
        assert!(relaxation.value() > 0.0, "relaxation time must be positive");
        assert!(conductivity >= 0.0, "conductivity must be non-negative");
        DebyeModel {
            eps_static,
            eps_infinity,
            relaxation,
            conductivity,
        }
    }

    /// Pure water at 25 °C (Kaatze 1989): ε_s = 78.36, ε_∞ = 5.2,
    /// τ = 8.27 ps, σ ≈ 0.
    pub fn pure_water() -> Self {
        DebyeModel::new(78.36, 5.2, Seconds::from_ps(8.27), 0.0)
    }
}

impl Dielectric for DebyeModel {
    fn permittivity(&self, f: Hertz) -> Permittivity {
        assert!(f.value() > 0.0, "frequency must be positive");
        let omega_tau = f.angular() * self.relaxation.value();
        let denom = 1.0 + omega_tau * omega_tau;
        let delta = self.eps_static - self.eps_infinity;
        let real = self.eps_infinity + delta / denom;
        let dipolar_loss = delta * omega_tau / denom;
        let ionic_loss = self.conductivity / (f.angular() * VACUUM_PERMITTIVITY);
        Permittivity::new(real, dipolar_loss + ionic_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_matches_literature_at_5ghz() {
        let eps = DebyeModel::pure_water().permittivity(Hertz::from_ghz(5.0));
        assert!((eps.real - 73.0).abs() < 2.0, "eps' = {}", eps.real);
        assert!((eps.imag - 18.0).abs() < 2.0, "eps'' = {}", eps.imag);
    }

    #[test]
    fn static_limit_recovers_eps_s() {
        let m = DebyeModel::pure_water();
        let eps = m.permittivity(Hertz::from_mhz(0.001));
        assert!((eps.real - m.eps_static).abs() < 0.01);
        assert!(eps.imag < 0.01);
    }

    #[test]
    fn high_frequency_limit_approaches_eps_infinity() {
        let m = DebyeModel::pure_water();
        let eps = m.permittivity(Hertz::from_ghz(100_000.0));
        assert!((eps.real - m.eps_infinity).abs() < 0.1);
    }

    #[test]
    fn loss_peaks_near_relaxation_frequency() {
        let m = DebyeModel::pure_water();
        // Peak dipolar loss occurs at ωτ = 1 → f ≈ 19.2 GHz for τ = 8.27 ps.
        let f_peak = 1.0 / (2.0 * std::f64::consts::PI * m.relaxation.value());
        let at_peak = m.permittivity(Hertz(f_peak)).imag;
        let below = m.permittivity(Hertz(f_peak / 8.0)).imag;
        let above = m.permittivity(Hertz(f_peak * 8.0)).imag;
        assert!(at_peak > below && at_peak > above);
    }

    #[test]
    fn conductivity_raises_loss_only() {
        let f = Hertz::from_ghz(5.0);
        let fresh = DebyeModel::pure_water().permittivity(f);
        let salty = DebyeModel::new(78.36, 5.2, Seconds::from_ps(8.27), 3.0).permittivity(f);
        assert_eq!(fresh.real, salty.real);
        assert!(salty.imag > fresh.imag + 5.0);
    }

    #[test]
    fn conductivity_loss_scales_inversely_with_frequency() {
        let m = DebyeModel::new(10.0, 5.0, Seconds::from_ps(1.0), 1.0);
        let lo = m.permittivity(Hertz::from_ghz(1.0));
        let hi = m.permittivity(Hertz::from_ghz(2.0));
        // Ionic term halves; dipolar term grows slightly. Net loss must drop
        // when the ionic term dominates.
        assert!(lo.imag > hi.imag);
    }

    #[test]
    #[should_panic(expected = "static permittivity")]
    fn rejects_inverted_permittivities() {
        let _ = DebyeModel::new(3.0, 5.0, Seconds::from_ps(8.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "relaxation")]
    fn rejects_nonpositive_relaxation() {
        let _ = DebyeModel::new(10.0, 5.0, Seconds(0.0), 0.0);
    }
}
