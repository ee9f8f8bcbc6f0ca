//! Support vector machine trained with the SMO algorithm.
//!
//! WiMi feeds its material features to an SVM classifier (paper §III-E).
//! This module implements a binary soft-margin SVM trained with a
//! simplified Sequential Minimal Optimization solver, plus one-vs-one
//! multiclass voting in [`crate::multiclass`].

use rand::Rng;

/// Kernel functions for the SVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Linear kernel `⟨x, y⟩`.
    Linear,
    /// Gaussian RBF `exp(−γ‖x−y‖²)`.
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// Polynomial `(⟨x, y⟩ + c)^d`.
    Polynomial {
        /// Degree `d`.
        degree: u32,
        /// Offset `c`.
        coef0: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths differ.
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel operands must share dimension");
        match *self {
            Kernel::Linear => dot(x, y),
            Kernel::Rbf { gamma } => {
                let d2: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
            Kernel::Polynomial { degree, coef0 } => (dot(x, y) + coef0).powi(degree as i32),
        }
    }
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// SVM training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty C.
    pub c: f64,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// Passes over the data without any α update before stopping.
    pub max_passes: usize,
    /// Hard cap on optimisation sweeps.
    pub max_iterations: usize,
    /// Kernel.
    pub kernel: Kernel,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            c: 10.0,
            tolerance: 1e-3,
            max_passes: 5,
            max_iterations: 300,
            kernel: Kernel::Rbf { gamma: 0.5 },
        }
    }
}

/// A trained binary SVM (labels −1/+1).
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySvm {
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>, // αᵢ·yᵢ for each support vector
    bias: f64,
    kernel: Kernel,
    iterations: usize,
}

impl BinarySvm {
    /// Trains on `xs` with ±1 labels `ys` using simplified SMO.
    ///
    /// Accepts any slice of feature rows (`Vec<f64>`, `&[f64]`, …) so
    /// callers can pass borrowed views instead of cloning each sample.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or mismatched, labels are not ±1, or
    /// only one class is present.
    pub fn train<X: AsRef<[f64]>, R: Rng + ?Sized>(
        xs: &[X],
        ys: &[f64],
        params: &SvmParams,
        rng: &mut R,
    ) -> Self {
        assert!(!xs.is_empty(), "cannot train on an empty set");
        assert_eq!(xs.len(), ys.len(), "features/labels length mismatch");
        #[expect(
            clippy::float_cmp,
            reason = "labels are the exact constants ±1 that callers assign, never computed values"
        )]
        let labels_ok = ys.iter().all(|&y| y == 1.0 || y == -1.0);
        assert!(labels_ok, "labels must be exactly ±1");
        assert!(
            ys.iter().any(|&y| y > 0.0) && ys.iter().any(|&y| y < 0.0),
            "training set must contain both classes"
        );

        let n = xs.len();
        // Precompute the kernel matrix in one flat row-major allocation,
        // evaluating only the upper triangle and mirroring (the kernel is
        // symmetric). Training sets here are small: tens to a few hundred
        // samples.
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            let xi = xs[i].as_ref();
            k[i * n + i] = params.kernel.eval(xi, xi);
            for j in (i + 1)..n {
                let v = params.kernel.eval(xi, xs[j].as_ref());
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let f = |alpha: &[f64], b: f64, k: &[f64], i: usize| -> f64 {
            let mut s = b;
            let row = &k[i * n..(i + 1) * n];
            for j in 0..n {
                // Multipliers satisfy 0 ≤ α ≤ C; `> 0.0` is the sparsity
                // skip without a float equality.
                if alpha[j] > 0.0 {
                    s += alpha[j] * ys[j] * row[j];
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut iter = 0usize;
        while passes < params.max_passes && iter < params.max_iterations {
            iter += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = f(&alpha, b, &k, i) - ys[i];
                let viol = (ys[i] * e_i < -params.tolerance && alpha[i] < params.c)
                    || (ys[i] * e_i > params.tolerance && alpha[i] > 0.0);
                if !viol {
                    continue;
                }
                // Pick j ≠ i at random (simplified SMO heuristic).
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let e_j = f(&alpha, b, &k, j) - ys[j];
                let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
                #[expect(
                    clippy::float_cmp,
                    reason = "labels are checked to be exactly ±1 above, so this compares two exact constants"
                )]
                let (lo, hi) = if ys[i] != ys[j] {
                    (
                        (alpha[j] - alpha[i]).max(0.0),
                        (params.c + alpha[j] - alpha[i]).min(params.c),
                    )
                } else {
                    (
                        (alpha[i] + alpha[j] - params.c).max(0.0),
                        (alpha[i] + alpha[j]).min(params.c),
                    )
                };
                if lo >= hi {
                    continue;
                }
                let (k_ii, k_ij, k_jj) = (k[i * n + i], k[i * n + j], k[j * n + j]);
                let eta = 2.0 * k_ij - k_ii - k_jj;
                if eta >= 0.0 {
                    continue;
                }
                let mut a_j = a_j_old - ys[j] * (e_i - e_j) / eta;
                a_j = a_j.clamp(lo, hi);
                if (a_j - a_j_old).abs() < 1e-6 {
                    continue;
                }
                let a_i = a_i_old + ys[i] * ys[j] * (a_j_old - a_j);
                alpha[i] = a_i;
                alpha[j] = a_j;

                let b1 = b - e_i - ys[i] * (a_i - a_i_old) * k_ii - ys[j] * (a_j - a_j_old) * k_ij;
                let b2 = b - e_j - ys[i] * (a_i - a_i_old) * k_ij - ys[j] * (a_j - a_j_old) * k_jj;
                b = if 0.0 < a_i && a_i < params.c {
                    b1
                } else if 0.0 < a_j && a_j < params.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only support vectors.
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support_vectors.push(xs[i].as_ref().to_vec());
                coefficients.push(alpha[i] * ys[i]);
            }
        }
        BinarySvm {
            support_vectors,
            coefficients,
            bias: b,
            kernel: params.kernel,
            iterations: iter,
        }
    }

    /// Optimisation sweeps the SMO loop ran before converging (or hitting
    /// the iteration cap). Deterministic for a seeded RNG.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Signed decision value `Σ αᵢyᵢ·K(xᵢ, x) + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.support_vectors
            .iter()
            .zip(&self.coefficients)
            .map(|(sv, c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias
    }

    /// Predicted label (−1 or +1).
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of support vectors retained.
    pub fn n_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n: usize, sep: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Two deterministic blobs separated along x.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let t = i as f64 * 0.7;
            xs.push(vec![sep + 0.3 * t.sin(), 0.3 * t.cos()]);
            ys.push(1.0);
            xs.push(vec![-sep + 0.3 * (t + 1.0).sin(), 0.3 * (t + 2.0).cos()]);
            ys.push(-1.0);
        }
        (xs, ys)
    }

    #[test]
    fn separable_blobs_are_classified() {
        let (xs, ys) = blobs(20, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        let svm = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len());
    }

    #[test]
    fn linear_kernel_works_on_separable_data() {
        let (xs, ys) = blobs(20, 3.0);
        let params = SvmParams {
            kernel: Kernel::Linear,
            ..SvmParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let svm = BinarySvm::train(&xs, &ys, &params, &mut rng);
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.95, "linear accuracy = {acc}");
    }

    #[test]
    fn rbf_solves_xor() {
        // XOR is not linearly separable; RBF must handle it.
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.1, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
        ];
        let ys = vec![1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 4.0 },
            c: 100.0,
            ..SvmParams::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let svm = BinarySvm::train(&xs, &ys, &params, &mut rng);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(svm.predict(x), y, "misclassified {x:?}");
        }
    }

    #[test]
    fn decision_margin_grows_away_from_boundary() {
        let (xs, ys) = blobs(20, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let svm = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
        let near = svm.decision(&[0.5, 0.0]);
        let far = svm.decision(&[3.0, 0.0]);
        assert!(
            far > near,
            "decision should grow with distance: {near} vs {far}"
        );
    }

    #[test]
    fn support_vectors_are_a_subset() {
        let (xs, ys) = blobs(30, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let svm = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
        assert!(svm.n_support_vectors() >= 2);
        assert!(svm.n_support_vectors() <= xs.len());
    }

    #[test]
    fn kernels_evaluate_correctly() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0];
        assert_eq!(Kernel::Linear.eval(&x, &y), 11.0);
        let rbf = Kernel::Rbf { gamma: 0.5 }.eval(&x, &y);
        assert!((rbf - (-0.5f64 * 8.0).exp()).abs() < 1e-12);
        let poly = Kernel::Polynomial {
            degree: 2,
            coef0: 1.0,
        }
        .eval(&x, &y);
        assert_eq!(poly, 144.0);
        // Identity: K(x,x) for RBF is 1.
        assert!((Kernel::Rbf { gamma: 2.0 }.eval(&x, &x) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn train_rejects_single_class() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(5);
        let _ = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn train_rejects_bad_labels() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(6);
        let _ = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
    }

    #[test]
    fn overlapping_classes_still_train() {
        // Heavily overlapping blobs: training must terminate and do better
        // than chance on the training set.
        let (xs, ys) = blobs(40, 0.2);
        let mut rng = StdRng::seed_from_u64(7);
        let svm = BinarySvm::train(&xs, &ys, &SvmParams::default(), &mut rng);
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.6, "overlap accuracy = {acc}");
    }
}
