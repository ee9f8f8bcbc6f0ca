//! The material feature database (paper §III-E: "we put the extracted
//! feature values into the material database").

use crate::feature::MaterialFeature;
use wimi_ml::dataset::Dataset;

/// A store of labelled material features used to train the classifier.
#[derive(Debug, Clone, Default)]
pub struct MaterialDatabase {
    materials: Vec<String>,
    features: Vec<(usize, MaterialFeature)>,
}

impl MaterialDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        MaterialDatabase::default()
    }

    /// Registers a material name, returning its label id; re-registering
    /// an existing name returns the existing id.
    fn register(&mut self, name: &str) -> usize {
        if let Some(idx) = self.materials.iter().position(|m| m == name) {
            idx
        } else {
            self.materials.push(name.to_owned());
            self.materials.len() - 1
        }
    }

    /// Adds one feature sample for a material (registering the name if
    /// needed).
    pub fn add(&mut self, name: &str, feature: MaterialFeature) {
        let label = self.register(name);
        self.features.push((label, feature));
    }

    /// Number of stored feature samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Registered material names.
    pub fn materials(&self) -> &[String] {
        &self.materials
    }

    /// Name for a label id.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown.
    pub fn name(&self, label: usize) -> &str {
        &self.materials[label]
    }

    /// All samples of one material.
    pub fn samples_of(&self, name: &str) -> Vec<&MaterialFeature> {
        match self.materials.iter().position(|m| m == name) {
            Some(label) => self
                .features
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|(_, f)| f)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Converts to an ML dataset of Ω̄ vectors.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty or features have inconsistent
    /// dimensionality (mixed subcarrier counts).
    pub fn to_dataset(&self) -> Dataset {
        assert!(!self.is_empty(), "database holds no samples");
        let mut ds = Dataset::new(self.materials.clone());
        for (label, feature) in &self.features {
            ds.push(feature.as_vector(), *label);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature(omega: f64, n: usize) -> MaterialFeature {
        MaterialFeature {
            pair: (0, 1),
            subcarriers: (0..n).collect(),
            omega: vec![omega; n],
            delta_theta: vec![0.5; n],
            delta_psi: vec![0.9; n],
            gamma: 0,
            dispersion: 0.01,
        }
    }

    #[test]
    fn register_is_idempotent() {
        let mut db = MaterialDatabase::new();
        let a = db.register("Milk");
        let b = db.register("Milk");
        assert_eq!(a, b);
        assert_eq!(db.materials(), &["Milk".to_owned()]);
    }

    #[test]
    fn add_and_query() {
        let mut db = MaterialDatabase::new();
        db.add("Milk", feature(0.1, 4));
        db.add("Oil", feature(0.04, 4));
        db.add("Milk", feature(0.11, 4));
        assert_eq!(db.len(), 3);
        assert_eq!(db.samples_of("Milk").len(), 2);
        assert_eq!(db.samples_of("Oil").len(), 1);
        assert!(db.samples_of("Honey").is_empty());
        assert_eq!(db.name(0), "Milk");
    }

    #[test]
    fn dataset_conversion() {
        let mut db = MaterialDatabase::new();
        for i in 0..5 {
            db.add("A", feature(0.1 + i as f64 * 1e-3, 3));
            db.add("B", feature(0.3 + i as f64 * 1e-3, 3));
        }
        let ds = db.to_dataset();
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.class_counts(), vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_dataset_rejected() {
        let _ = MaterialDatabase::new().to_dataset();
    }
}
