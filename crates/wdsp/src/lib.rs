//! # wimi-dsp
//!
//! Signal-processing substrate for the WiMi reproduction: descriptive and
//! circular statistics, outlier rejection, classic smoothing filters, and
//! the stationary wavelet transform with the spatially-selective
//! correlation denoiser of the paper's §III-C.
//!
//! # Example: denoising an impulse-corrupted amplitude series
//!
//! ```
//! use wimi_dsp::outlier::reject_outliers_3sigma;
//! use wimi_dsp::wavelet::correlation_denoise;
//!
//! let mut series: Vec<f64> = (0..64).map(|i| 1.0 + 0.05 * (i as f64 * 0.3).sin()).collect();
//! series[20] += 2.5; // impulse
//! let cleaned = correlation_denoise(&reject_outliers_3sigma(&series));
//! assert!((cleaned[20] - 1.0).abs() < 0.3);
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

pub mod filters;
pub mod outlier;
pub mod stats;
pub mod wavelet;

pub use filters::{butterworth_filtfilt, median_filter, slide_filter};
pub use outlier::reject_outliers_3sigma;
pub use wavelet::{correlation_denoise, CorrelationDenoiser, Wavelet};
