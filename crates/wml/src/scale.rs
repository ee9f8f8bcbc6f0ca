//! Feature standardisation.

use crate::dataset::Dataset;

/// Per-dimension standardiser: `x' = (x − μ)/σ`, fitted on training data
/// and applied to both training and test sets so no test statistics leak.
///
/// # Examples
///
/// ```
/// use wimi_ml::scale::StandardScaler;
///
/// let train = vec![vec![1.0, 10.0], vec![3.0, 30.0]];
/// let scaler = StandardScaler::fit(&train);
/// let z = scaler.transform_one(&[2.0, 20.0]);
/// assert!(z.iter().all(|v| v.abs() < 1e-12)); // the mean maps to 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits means and standard deviations per dimension.
    ///
    /// Dimensions with zero variance get σ = 1 (pass-through after
    /// centring) so constant features do not produce NaNs.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have inconsistent lengths.
    pub fn fit(data: &[Vec<f64>]) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on no data");
        let dim = data[0].len();
        assert!(
            data.iter().all(|row| row.len() == dim),
            "rows must share dimensionality"
        );
        let n = data.len() as f64;
        let mut means = vec![0.0; dim];
        for row in data {
            for (m, x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut stds = vec![0.0; dim];
        for row in data {
            for (s, (x, m)) in stds.iter_mut().zip(row.iter().zip(&means)) {
                *s += (x - m) * (x - m);
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            // A standard deviation is non-negative; guard the degenerate
            // constant-feature case without a float equality.
            if *s <= 0.0 {
                *s = 1.0;
            }
        }
        StandardScaler { means, stds }
    }

    /// Standardises one vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs from the fitted data.
    pub fn transform_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.means.len(), "dimension mismatch");
        x.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Standardises every sample of a dataset, keeping labels, order and
    /// class names.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs from the fitted data.
    pub fn transform_dataset(&self, ds: &Dataset) -> Dataset {
        let mut scaled = Dataset::new(ds.class_names().to_vec());
        for (x, &y) in ds.features().iter().zip(ds.labels()) {
            scaled.push(self.transform_one(x), y);
        }
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_to_zero_mean_unit_var() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()]);
        for (i, x) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            ds.push(vec![x, 100.0 * x], i % 2);
        }
        let scaler = StandardScaler::fit(ds.features());
        let z = scaler.transform_dataset(&ds);
        assert_eq!(z.labels(), ds.labels());
        assert_eq!(z.class_names(), ds.class_names());
        for d in 0..2 {
            let col: Vec<f64> = z.features().iter().map(|row| row[d]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let data = vec![vec![5.0, 1.0], vec![5.0, 2.0]];
        let scaler = StandardScaler::fit(&data);
        let z = scaler.transform_one(&[5.0, 1.5]);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_rejects_wrong_dim() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let _ = scaler.transform_one(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn fit_rejects_empty() {
        let _ = StandardScaler::fit(&[]);
    }

    #[test]
    fn fit_keeps_mean_and_population_std() {
        let scaler = StandardScaler::fit(&[vec![0.0], vec![2.0]]);
        assert_eq!(scaler.means, [1.0]);
        assert_eq!(scaler.stds, [1.0]);
    }
}
