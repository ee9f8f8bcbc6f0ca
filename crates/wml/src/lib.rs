//! # wimi-ml
//!
//! Machine-learning substrate for the WiMi reproduction: a from-scratch
//! SMO-trained SVM (linear/RBF/polynomial kernels, one-vs-one multiclass),
//! a k-NN baseline, feature standardisation, stratified splits/folds, and
//! confusion-matrix metrics.
//!
//! # Example: train and evaluate a multiclass SVM
//!
//! ```
//! use rand::SeedableRng;
//! use wimi_ml::dataset::Dataset;
//! use wimi_ml::multiclass::MulticlassSvm;
//! use wimi_ml::svm::SvmParams;
//!
//! let mut ds = Dataset::new(vec!["water".into(), "oil".into()]);
//! for i in 0..10 {
//!     ds.push(vec![0.13 + i as f64 * 1e-3], 0);
//!     ds.push(vec![0.04 + i as f64 * 1e-3], 1);
//! }
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let model = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
//! assert_eq!(model.predict(&[0.135]), 0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod cv;
pub mod dataset;
pub mod knn;
pub mod metrics;
pub mod multiclass;
pub mod par;
pub mod scale;
pub mod svm;

pub use cv::{cross_validate_svm, CvResult};
pub use dataset::Dataset;
pub use knn::KnnClassifier;
pub use metrics::{accuracy, ConfusionMatrix};
pub use multiclass::MulticlassSvm;
pub use scale::StandardScaler;
pub use svm::{BinarySvm, Kernel, SvmParams};
