//! Deterministic grid expansion: a validated [`Campaign`] becomes an
//! ordered list of [`CellPlan`]s, one per cartesian combination of axis
//! values, each with a seed derived from the campaign root seed and the
//! cell index — never from ambient state — so any cell can be re-run in
//! isolation and reproduce its artifact byte for byte.

use wimi_phy::channel::Environment;
use wimi_phy::material::ContainerMaterial;

use crate::ast::{Campaign, MaterialSet};

/// One fully resolved evaluation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlan {
    /// Position in campaign expansion order (0-based).
    pub index: u64,
    /// The cell's derived root seed ([`derive_cell_seed`]).
    pub seed: u64,
    /// Materials the cell discriminates between.
    pub materials: MaterialSet,
    /// Deployment environment.
    pub environment: Environment,
    /// Tx–Rx link distance in centimetres.
    pub distance_cm: f64,
    /// Beaker wall material.
    pub container: ContainerMaterial,
    /// Beaker diameter in centimetres.
    pub diameter_cm: f64,
    /// Packets per capture.
    pub packets: usize,
    /// Baseline fault intensity (0 = clean channel).
    pub intensity: f64,
    /// Replica index (seed-only axis).
    pub replica: u64,
}

/// The number of cells the campaign expands to: the product of all axis
/// lengths, saturating at `usize::MAX` (the validator rejects anything
/// above [`crate::parse::MAX_CELLS`] long before saturation matters).
pub fn cell_count(c: &Campaign) -> usize {
    [
        c.axes.materials.len(),
        c.axes.environments.len(),
        c.axes.distances_cm.len(),
        c.axes.containers.len(),
        c.axes.diameters_cm.len(),
        c.axes.packets.len(),
        c.axes.intensities.len(),
        c.axes.replicas.len(),
    ]
    .iter()
    .fold(1usize, |acc, &n| acc.saturating_mul(n))
}

/// Derives the root seed of cell `cell` from the campaign seed.
///
/// The high 36 bits come from a SplitMix64 finalizer over
/// `root ^ (cell + 1) · φ64`; the low 17 bits are the cell index itself,
/// which makes the map injective by construction for every campaign the
/// validator admits ([`crate::parse::MAX_CELLS`] < 2¹⁷) — per-cell seeds
/// are collision-free, pinned by the property tests. The result stays
/// below 2⁵³, so seeds recorded in artifact headers and summary JSON
/// survive a round-trip through f64-backed JSON parsers exactly.
pub fn derive_cell_seed(root: u64, cell: u64) -> u64 {
    let mut z = root ^ cell.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z & 0xF_FFFF_FFFF) << 17) | (cell & 0x1_FFFF)
}

/// Expands the campaign grid into cells, in canonical order: materials
/// outermost, then environments, distances, containers, diameters,
/// packets, intensities, and replicas innermost.
pub fn expand(c: &Campaign) -> Vec<CellPlan> {
    let mut cells = Vec::with_capacity(cell_count(c));
    let mut index = 0u64;
    for materials in &c.axes.materials {
        for &environment in &c.axes.environments {
            for &distance_cm in &c.axes.distances_cm {
                for &container in &c.axes.containers {
                    for &diameter_cm in &c.axes.diameters_cm {
                        for &packets in &c.axes.packets {
                            for &intensity in &c.axes.intensities {
                                for &replica in &c.axes.replicas {
                                    cells.push(CellPlan {
                                        index,
                                        seed: derive_cell_seed(c.seed, index),
                                        materials: materials.clone(),
                                        environment,
                                        distance_cm,
                                        container,
                                        diameter_cm,
                                        packets,
                                        intensity,
                                        replica,
                                    });
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{MaterialRef, MaterialSet};
    use wimi_phy::material::Liquid;

    fn two_by_three() -> Campaign {
        let mut c = Campaign::with_defaults("grid");
        c.axes.materials = vec![
            MaterialSet::Paper10,
            MaterialSet::List(vec![
                MaterialRef::Catalog(Liquid::Milk),
                MaterialRef::Catalog(Liquid::Oil),
            ]),
        ];
        c.axes.intensities = vec![0.0, 0.2, 0.4];
        c
    }

    #[test]
    fn cell_count_is_product_of_axis_lengths() {
        let c = two_by_three();
        assert_eq!(cell_count(&c), 6);
        assert_eq!(expand(&c).len(), 6);
    }

    #[test]
    fn expansion_order_is_replica_innermost() {
        let mut c = two_by_three();
        c.axes.replicas = vec![0, 1];
        let cells = expand(&c);
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].replica, 0);
        assert_eq!(cells[1].replica, 1);
        assert_eq!(cells[0].intensity, cells[1].intensity);
        // Intensity advances once the replica axis wraps.
        assert_eq!(cells[2].intensity, 0.2);
        // Materials are outermost: the second set starts at the halfway point.
        assert_eq!(cells[6].materials.len(), 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i as u64);
            assert_eq!(cell.seed, derive_cell_seed(c.seed, i as u64));
        }
    }

    #[test]
    fn derived_seeds_differ_across_cells_and_roots() {
        let a: Vec<u64> = (0..1000).map(|i| derive_cell_seed(0xACC0, i)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "collision within a campaign");
        assert_ne!(derive_cell_seed(1, 0), derive_cell_seed(2, 0));
    }

    #[test]
    fn derived_seeds_fit_exactly_in_f64_json_numbers() {
        // The artifact readers carry every u64 exactly; the 2^53 bound is
        // kept because widening the law would re-seed every recorded cell.
        for cell in [0u64, 1, 17, 99_999] {
            let seed = derive_cell_seed(0xACC0, cell);
            assert!(seed < (1 << 53), "seed {seed} breaks the 2^53 seed law");
            assert_eq!(seed & 0x1_FFFF, cell, "low bits must encode the cell");
        }
    }
}
