//! Measurements scored against the simulator's truth.
//!
//! Accuracy saturates near 100% and cannot see a measurement that got
//! twice as noisy. The simulator knows the answer instead: every liquid's
//! true Ω̄ is [`PropagationConstants::material_feature`] of its Debye
//! model against air. [`reduce`] turns a set of measurements per material
//! into that truth, the measured mean, its bias and its RMS relative
//! error, and counts what was kept, refused, or far off.

use crate::pipeline::Measurement;
use wimi_phy::material::{Dielectric, PropagationConstants};
use wimi_phy::scenario::LiquidSpec;
use wimi_phy::units::Hertz;

/// Relative error above which a feature counts as far off its truth: the
/// size of error a wrong phase-wrap count γ makes.
pub const FAR_OFF: f64 = 0.25;

/// One material's measurements against its true Ω̄.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialFidelity {
    /// The material's display name.
    pub name: String,
    /// True Ω̄ at the frequency [`reduce`] was given.
    pub truth: f64,
    /// Mean measured Ω̄ over the kept features (`NaN` when none was kept).
    pub mean: f64,
    /// Relative bias of that mean, `(mean − truth)/truth`.
    pub bias: f64,
    /// RMS over the kept features of `(Ω̄ − truth)/truth`.
    pub rms_rel: f64,
    /// Measurements that gave a feature.
    pub kept: usize,
    /// Measurements that gave none.
    pub refused: usize,
    /// Kept features more than [`FAR_OFF`] from the truth, relatively.
    pub far_off: usize,
}

/// Per-material scores of one set of measurements, in the given order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    /// One row per material.
    pub materials: Vec<MaterialFidelity>,
}

impl Fidelity {
    /// RMS over the materials that kept a feature of each one's RMS
    /// relative error, so every material weighs the same whatever it
    /// kept. `NaN` when no material kept one.
    pub fn rms_rel(&self) -> f64 {
        let kept = || self.materials.iter().filter(|m| m.kept > 0);
        let n = kept().count();
        (kept().map(|m| m.rms_rel * m.rms_rel).sum::<f64>() / n as f64).sqrt()
    }

    /// Kept features more than [`FAR_OFF`] from their truth, over all
    /// materials.
    pub fn far_off(&self) -> usize {
        self.materials.iter().map(|m| m.far_off).sum()
    }

    /// Measurements that gave no feature, over all materials.
    pub fn refused(&self) -> usize {
        self.materials.iter().map(|m| m.refused).sum()
    }
}

/// Scores each material's measurements against its true Ω̄ at
/// `frequency` (the channel centre for a whole-band feature).
pub fn reduce<'a>(
    frequency: Hertz,
    groups: impl IntoIterator<Item = (&'a LiquidSpec, &'a [Measurement])>,
) -> Fidelity {
    let air = PropagationConstants::air(frequency);
    let materials = groups
        .into_iter()
        .map(|(spec, measurements)| {
            let truth = spec.propagation(frequency).material_feature(air);
            let omegas: Vec<f64> = measurements
                .iter()
                .filter_map(|m| m.feature.as_ref().ok())
                .map(|f| f.omega_mean())
                .collect();
            let kept = omegas.len();
            let rel = || omegas.iter().map(|w| (w - truth) / truth);
            let mean = omegas.iter().sum::<f64>() / kept as f64;
            MaterialFidelity {
                name: spec.name().to_owned(),
                truth,
                mean,
                bias: (mean - truth) / truth,
                rms_rel: (rel().map(|e| e * e).sum::<f64>() / kept as f64).sqrt(),
                kept,
                refused: measurements.len() - kept,
                far_off: rel().filter(|e| e.abs() > FAR_OFF).count(),
            }
        })
        .collect();
    Fidelity { materials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FeatureError;
    use crate::feature::MaterialFeature;
    use crate::pipeline::QualityReport;
    use wimi_phy::material::Liquid;

    fn measurement(omega: Option<f64>) -> Measurement {
        Measurement {
            feature: omega
                .map(|w| MaterialFeature {
                    pair: (0, 1),
                    subcarriers: vec![0, 1],
                    omega: vec![w, w],
                    delta_theta: vec![0.0; 2],
                    delta_psi: vec![1.0; 2],
                    gamma: 0,
                    dispersion: 0.0,
                })
                .ok_or(FeatureError::EmptyCapture),
            quality: QualityReport::default(),
        }
    }

    #[test]
    fn scores_against_the_debye_truth() {
        let f = Hertz::from_ghz(5.24);
        let water = LiquidSpec::catalog(Liquid::PureWater);
        let oil = LiquidSpec::catalog(Liquid::Oil);
        let truth = water
            .propagation(f)
            .material_feature(PropagationConstants::air(f));
        let near = [
            measurement(Some(1.1 * truth)),
            measurement(Some(0.9 * truth)),
            measurement(Some(1.5 * truth)),
            measurement(None),
        ];
        let none = [measurement(None)];
        let fid = reduce(f, [(&water, &near[..]), (&oil, &none[..])]);
        let w = &fid.materials[0];
        assert_eq!(w.name, "Pure water");
        assert!((w.truth - truth).abs() < 1e-15);
        assert!((w.bias - 0.5 / 3.0).abs() < 1e-12, "bias {}", w.bias);
        let rms = ((0.01 + 0.01 + 0.25) / 3.0f64).sqrt();
        assert!((w.rms_rel - rms).abs() < 1e-12, "rms {}", w.rms_rel);
        assert_eq!((w.kept, w.refused, w.far_off), (3, 1, 1));
        assert_eq!(fid.materials[1].kept, 0);
        assert!(fid.materials[1].mean.is_nan());
        // A material that kept nothing counts in `refused`, not the RMS.
        assert!((fid.rms_rel() - rms).abs() < 1e-12);
        assert_eq!((fid.far_off(), fid.refused()), (1, 2));
    }
}
