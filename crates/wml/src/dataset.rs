//! Labelled datasets and splitting utilities.

use rand::seq::SliceRandom;
use rand::Rng;

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

    /// Stratified train/test split: each class contributes `train_frac` of
    /// its samples to the training set (rounded down, at least one per
    /// class if the class has ≥ 2 samples).
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is not in `(0, 1)`.
    pub fn stratified_split<R: Rng + ?Sized>(
        &self,
        train_frac: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut train = Dataset::new(self.class_names.clone());
        let mut test = Dataset::new(self.class_names.clone());
        for class in 0..self.n_classes() {
            let mut idx: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            idx.shuffle(rng);
            let n_train = if idx.len() >= 2 {
                ((idx.len() as f64 * train_frac) as usize).clamp(1, idx.len() - 1)
            } else {
                idx.len()
            };
            for (j, &i) in idx.iter().enumerate() {
                let target = if j < n_train { &mut train } else { &mut test };
                target.push(self.features[i].clone(), class);
            }
        }
        (train, test)
    }

    /// Stratified k-fold indices: returns `k` disjoint test-index sets
    /// covering all samples, with class proportions preserved.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k` exceeds the smallest class count.
    pub fn stratified_folds<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<Vec<usize>> {
        assert!(k >= 2, "need at least 2 folds");
        let min_class = self
            .class_counts()
            .into_iter()
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(0);
        assert!(
            k <= min_class,
            "k ({k}) exceeds the smallest class count ({min_class})"
        );
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for class in 0..self.n_classes() {
            let mut idx: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            idx.shuffle(rng);
            for (j, i) in idx.into_iter().enumerate() {
                folds[j % k].push(i);
            }
        }
        folds
    }

    /// Builds the complement dataset pair for one fold: (train, test).
    pub fn fold_split(&self, test_indices: &[usize]) -> (Dataset, Dataset) {
        // A sorted Vec keeps membership checks O(log n) without the
        // unspecified iteration order of a hashed set.
        let mut test_set: Vec<usize> = test_indices.to_vec();
        test_set.sort_unstable();
        let mut train = Dataset::new(self.class_names.clone());
        let mut test = Dataset::new(self.class_names.clone());
        for i in 0..self.len() {
            let target = if test_set.binary_search(&i).is_ok() {
                &mut test
            } else {
                &mut train
            };
            target.push(self.features[i].clone(), self.labels[i]);
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn stratified_split_preserves_classes() {
        let ds = toy(10);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.stratified_split(0.7, &mut rng);
        assert_eq!(train.class_counts(), vec![7, 7, 7]);
        assert_eq!(test.class_counts(), vec![3, 3, 3]);
        assert_eq!(train.len() + test.len(), ds.len());
    }

    #[test]
    fn split_keeps_at_least_one_test_sample() {
        let ds = toy(2);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = ds.stratified_split(0.99, &mut rng);
        assert_eq!(train.class_counts(), vec![1, 1, 1]);
        assert_eq!(test.class_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn folds_are_disjoint_and_cover() {
        let ds = toy(10);
        let mut rng = StdRng::seed_from_u64(3);
        let folds = ds.stratified_folds(5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn fold_split_partitions() {
        let ds = toy(5);
        let mut rng = StdRng::seed_from_u64(4);
        let folds = ds.stratified_folds(5, &mut rng);
        let (train, test) = ds.fold_split(&folds[0]);
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), folds[0].len());
    }

    #[test]
    #[should_panic(expected = "exceeds the smallest class")]
    fn folds_reject_small_classes() {
        let ds = toy(3);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = ds.stratified_folds(4, &mut rng);
    }
}
