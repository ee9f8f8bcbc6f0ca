//! Labelled datasets.

/// A labelled dataset: feature vectors with class labels.
///
/// # Examples
///
/// ```
/// use wimi_ml::dataset::Dataset;
///
/// let mut ds = Dataset::new(vec!["cat".into(), "dog".into()]);
/// ds.push(vec![0.0, 1.0], 0);
/// ds.push(vec![1.0, 0.0], 1);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.n_classes(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    class_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given class names.
    ///
    /// # Panics
    ///
    /// Panics if no classes are given.
    pub fn new(class_names: Vec<String>) -> Self {
        assert!(!class_names.is_empty(), "dataset needs at least one class");
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            class_names,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range, the feature vector is empty,
    /// contains non-finite values, or its dimension differs from earlier
    /// samples.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        assert!(label < self.class_names.len(), "label out of range");
        assert!(!features.is_empty(), "feature vector must be non-empty");
        assert!(
            features.iter().all(|x| x.is_finite()),
            "features must be finite"
        );
        if let Some(first) = self.features.first() {
            assert_eq!(
                first.len(),
                features.len(),
                "feature dimension must be consistent"
            );
        }
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality (0 when empty).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Class display names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Feature matrix.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> (&[f64], usize) {
        (&self.features[i], self.labels[i])
    }

    /// Count of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Whether a multiclass model can be trained on this set: at least
    /// two classes hold a sample.
    pub fn is_trainable(&self) -> bool {
        self.class_counts().iter().filter(|&&n| n > 0).count() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for class in 0..3 {
            for i in 0..n_per_class {
                ds.push(vec![class as f64, i as f64], class);
            }
        }
        ds
    }

    #[test]
    fn push_and_introspect() {
        let ds = toy(4);
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.class_counts(), vec![4, 4, 4]);
        let (x, y) = ds.sample(5);
        assert_eq!(y, 1);
        assert_eq!(x.len(), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn push_rejects_bad_label() {
        let mut ds = toy(1);
        ds.push(vec![0.0, 0.0], 7);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_rejects_nan() {
        let mut ds = toy(1);
        ds.push(vec![f64::NAN, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn push_rejects_dim_mismatch() {
        let mut ds = toy(1);
        ds.push(vec![1.0], 0);
    }
}
