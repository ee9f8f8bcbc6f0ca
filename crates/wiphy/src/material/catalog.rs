//! Catalog of the liquids evaluated in the WiMi paper.
//!
//! The paper measures ten real liquids with an Intel 5300 NIC. Real liquids
//! are not available in this environment (hardware/data gate), so each is
//! substituted by a single-pole Debye model whose parameters are drawn from
//! the dielectric-spectroscopy literature at 20–25 °C. The parameters were
//! chosen so the 5 GHz permittivities land near published values, and so
//! that *relative* contrasts the paper relies on are preserved — in
//! particular Pepsi and Coke are deliberately near-identical (they differ
//! mostly in trace acid/ion content), making them the hard pair the paper
//! highlights.

use super::debye::DebyeModel;
use super::{ConstantPermittivity, Dielectric, Permittivity};
use crate::units::{Hertz, Seconds};
use std::fmt;

/// The ten liquids of the paper's Fig. 15 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Liquid {
    /// Rice vinegar (~5 % acetic acid, weak electrolyte).
    Vinegar,
    /// Honey (low water content, high sugar).
    Honey,
    /// Soy sauce (very high salt → conductivity-dominated loss).
    Soy,
    /// Whole milk (fat/protein suspension).
    Milk,
    /// Pepsi cola (carbonated sugar water + phosphoric acid).
    Pepsi,
    /// Distilled liquor (~50 % ethanol–water).
    Liquor,
    /// Distilled/pure water.
    PureWater,
    /// Vegetable cooking oil (low-loss, low permittivity).
    Oil,
    /// Coca-Cola (deliberately close to Pepsi).
    Coke,
    /// Sugar water (~10 % sucrose).
    SweetWater,
}

/// All ten catalog liquids, in the order of the paper's Fig. 15 legend.
pub const LIQUIDS: [Liquid; 10] = [
    Liquid::Vinegar,
    Liquid::Honey,
    Liquid::Soy,
    Liquid::Milk,
    Liquid::Pepsi,
    Liquid::Liquor,
    Liquid::PureWater,
    Liquid::Oil,
    Liquid::Coke,
    Liquid::SweetWater,
];

impl Liquid {
    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Liquid::Vinegar => "Vinegar",
            Liquid::Honey => "Honey",
            Liquid::Soy => "Soy",
            Liquid::Milk => "Milk",
            Liquid::Pepsi => "Pepsi",
            Liquid::Liquor => "Liquor",
            Liquid::PureWater => "Pure water",
            Liquid::Oil => "Oil",
            Liquid::Coke => "Coke",
            Liquid::SweetWater => "Sweet water",
        }
    }

    /// The Debye dielectric model for this liquid.
    ///
    /// Parameters: `(ε_s, ε_∞, τ [ps], σ [S/m])`.
    pub fn debye(self) -> DebyeModel {
        match self {
            // Acetic acid solution: reduced ε_s, slowed relaxation, ionic loss.
            Liquid::Vinegar => DebyeModel::new(71.0, 5.2, Seconds::from_ps(10.0), 1.8),
            // Mostly sugar; little free water → low, slowly-relaxing
            // permittivity (high viscosity drags the relaxation out).
            Liquid::Honey => DebyeModel::new(12.0, 3.5, Seconds::from_ps(22.0), 0.08),
            // Brine-like: conductivity dominates ε''.
            Liquid::Soy => DebyeModel::new(60.0, 5.0, Seconds::from_ps(9.0), 4.5),
            // Fat and protein displace water and slow relaxation;
            // dissolved salts add conductivity.
            Liquid::Milk => DebyeModel::new(66.0, 5.0, Seconds::from_ps(12.0), 1.5),
            // Sugar water + phosphoric acid.
            Liquid::Pepsi => DebyeModel::new(76.5, 5.2, Seconds::from_ps(9.3), 0.15),
            // ~50 % ethanol: lower ε_s, much slower relaxation.
            Liquid::Liquor => DebyeModel::new(45.0, 4.5, Seconds::from_ps(35.0), 0.02),
            Liquid::PureWater => DebyeModel::pure_water(),
            // Non-polar triglycerides.
            Liquid::Oil => DebyeModel::new(2.6, 2.45, Seconds::from_ps(30.0), 0.001),
            // Near-twin of Pepsi: slightly different acid/ion balance.
            Liquid::Coke => DebyeModel::new(76.0, 5.2, Seconds::from_ps(9.3), 0.50),
            // 10 % sucrose: mildly reduced ε_s, slowed relaxation.
            Liquid::SweetWater => DebyeModel::new(74.0, 5.2, Seconds::from_ps(11.0), 0.01),
        }
    }
}

impl Dielectric for Liquid {
    fn permittivity(&self, f: Hertz) -> Permittivity {
        self.debye().permittivity(f)
    }
}

impl fmt::Display for Liquid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A saltwater solution of given concentration, for the paper's Fig. 16
/// experiment (1.2, 2.7 and 5.9 g/100 ml).
///
/// Salinity raises ionic conductivity roughly linearly (~1.5 S/m per
/// g/100 ml at room temperature) and mildly depresses the static
/// permittivity.
///
/// # Examples
///
/// ```
/// use wimi_phy::material::{Dielectric, SaltwaterConcentration};
/// use wimi_phy::units::Hertz;
///
/// let weak = SaltwaterConcentration::new(1.2);
/// let strong = SaltwaterConcentration::new(5.9);
/// let f = Hertz::from_ghz(5.24);
/// assert!(strong.permittivity(f).imag > weak.permittivity(f).imag);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SaltwaterConcentration {
    grams_per_100ml: f64,
}

impl SaltwaterConcentration {
    /// The three concentrations used in the paper's Fig. 16.
    pub const PAPER_SET: [SaltwaterConcentration; 3] = [
        SaltwaterConcentration {
            grams_per_100ml: 1.2,
        },
        SaltwaterConcentration {
            grams_per_100ml: 2.7,
        },
        SaltwaterConcentration {
            grams_per_100ml: 5.9,
        },
    ];

    /// Creates a concentration in grams of NaCl per 100 ml of water.
    ///
    /// # Panics
    ///
    /// Panics if the concentration is negative or above the ~36 g/100 ml
    /// solubility limit of NaCl.
    pub fn new(grams_per_100ml: f64) -> Self {
        assert!(
            (0.0..=36.0).contains(&grams_per_100ml),
            "NaCl concentration must be within [0, 36] g/100ml, got {grams_per_100ml}"
        );
        SaltwaterConcentration { grams_per_100ml }
    }

    /// The Debye model for this solution.
    pub fn debye(self) -> DebyeModel {
        let g = self.grams_per_100ml;
        let sigma = 1.5 * g;
        let eps_s = (78.36 - 1.6 * g).max(40.0);
        DebyeModel::new(eps_s, 5.2, Seconds::from_ps(8.27), sigma)
    }
}

impl Dielectric for SaltwaterConcentration {
    fn permittivity(&self, f: Hertz) -> Permittivity {
        self.debye().permittivity(f)
    }
}

impl fmt::Display for SaltwaterConcentration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "saltwater {} g/100ml", self.grams_per_100ml)
    }
}

/// Container wall materials for the Fig. 20 experiment.
///
/// Glass and plastic are thin, low-loss dielectrics whose effect cancels in
/// WiMi's baseline subtraction; metal reflects the signal entirely and makes
/// identification impossible (paper §V-B / §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerMaterial {
    /// Soda-lime glass beaker.
    Glass,
    /// Acrylic/PET plastic beaker.
    Plastic,
    /// Metallic (or foil-wrapped) container: blocks penetration.
    Metal,
}

impl ContainerMaterial {
    /// The wall dielectric, or `None` for metal (treated as a reflector).
    pub fn dielectric(self) -> Option<ConstantPermittivity> {
        match self {
            ContainerMaterial::Glass => Some(ConstantPermittivity::new(5.5, 0.06)),
            ContainerMaterial::Plastic => Some(ConstantPermittivity::new(2.6, 0.02)),
            ContainerMaterial::Metal => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ContainerMaterial::Glass => "Glass",
            ContainerMaterial::Plastic => "Plastic",
            ContainerMaterial::Metal => "Metal",
        }
    }
}

impl fmt::Display for ContainerMaterial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::PropagationConstants;

    const F: Hertz = Hertz(5.24e9);

    #[test]
    fn all_liquids_have_distinct_material_features() {
        let air = PropagationConstants::air(F);
        let mut feats: Vec<(Liquid, f64)> = LIQUIDS
            .iter()
            .map(|&l| (l, l.propagation(F).material_feature(air)))
            .collect();
        feats.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for pair in feats.windows(2) {
            let gap = (pair[1].1 - pair[0].1).abs();
            assert!(
                gap > 1e-4,
                "features too close: {} ({}) vs {} ({})",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
    }

    #[test]
    fn pepsi_and_coke_are_the_hardest_pair_among_colas() {
        let air = PropagationConstants::air(F);
        let f = |l: Liquid| l.propagation(F).material_feature(air);
        let pepsi_coke = (f(Liquid::Pepsi) - f(Liquid::Coke)).abs();
        let pepsi_water = (f(Liquid::Pepsi) - f(Liquid::PureWater)).abs();
        let pepsi_oil = (f(Liquid::Pepsi) - f(Liquid::Oil)).abs();
        assert!(pepsi_coke < pepsi_water);
        assert!(pepsi_coke < pepsi_oil);
    }

    #[test]
    fn soy_is_lossier_than_milk() {
        let f = Hertz::from_ghz(5.24);
        assert!(Liquid::Soy.permittivity(f).imag > Liquid::Milk.permittivity(f).imag);
    }

    #[test]
    fn oil_is_nearly_transparent() {
        let pc = Liquid::Oil.propagation(F);
        assert!(pc.alpha < 5.0, "alpha = {}", pc.alpha);
    }

    #[test]
    fn saltwater_loss_monotone_in_concentration() {
        let f = F;
        let imags: Vec<f64> = SaltwaterConcentration::PAPER_SET
            .iter()
            .map(|c| c.permittivity(f).imag)
            .collect();
        assert!(imags[0] < imags[1] && imags[1] < imags[2]);
    }

    #[test]
    fn saltwater_features_distinct_from_pure_water() {
        let air = PropagationConstants::air(F);
        let water = Liquid::PureWater.propagation(F).material_feature(air);
        for c in SaltwaterConcentration::PAPER_SET {
            let feat = c.propagation(F).material_feature(air);
            assert!((feat - water).abs() > 0.01, "{c} too close to pure water");
        }
    }

    #[test]
    #[should_panic(expected = "concentration")]
    fn saltwater_rejects_oversaturated() {
        let _ = SaltwaterConcentration::new(50.0);
    }

    #[test]
    fn container_dielectrics() {
        assert!(ContainerMaterial::Glass.dielectric().is_some());
        assert!(ContainerMaterial::Plastic.dielectric().is_some());
        assert!(ContainerMaterial::Metal.dielectric().is_none());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Liquid::PureWater.to_string(), "Pure water");
        assert_eq!(ContainerMaterial::Metal.to_string(), "Metal");
        assert_eq!(format!("{:<8}", ContainerMaterial::Glass), "Glass   ");
        assert_eq!(
            SaltwaterConcentration::new(1.2).to_string(),
            "saltwater 1.2 g/100ml"
        );
    }

    #[test]
    fn catalog_is_complete() {
        assert_eq!(LIQUIDS.len(), 10);
        let mut names: Vec<&str> = LIQUIDS.iter().map(|l| l.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate liquid names");
    }
}
