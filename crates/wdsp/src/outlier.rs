//! Outlier rejection for amplitude series.
//!
//! The paper's first amplitude-denoising step (§III-C) keeps samples inside
//! `[μ − 3σ, μ + 3σ]` and discards the rest. To keep series lengths stable
//! for the downstream wavelet stage, rejected samples are replaced by
//! linear interpolation of their surviving neighbours.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::stats::{mean, std_dev};

/// Marks samples outside `μ ± k·σ`. Returns a keep-mask.
pub fn sigma_mask(xs: &[f64], k: f64) -> Vec<bool> {
    assert!(k > 0.0, "sigma multiplier must be positive");
    if xs.is_empty() {
        return Vec::new();
    }
    let m = mean(xs);
    let s = std_dev(xs);
    xs.iter().map(|&x| (x - m).abs() <= k * s).collect()
}

/// The paper's 3σ outlier rule: samples outside `[μ−3σ, μ+3σ]` are
/// replaced by linear interpolation between the nearest kept neighbours
/// (edge outliers take the nearest kept value).
///
/// # Examples
///
/// ```
/// use wimi_dsp::outlier::reject_outliers_3sigma;
/// let mut xs = vec![1.0, 1.02, 0.98, 9.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.01, 1.0, 0.99];
/// let cleaned = reject_outliers_3sigma(&xs);
/// assert!(cleaned[3] < 1.5);
/// ```
pub fn reject_outliers_3sigma(xs: &[f64]) -> Vec<f64> {
    reject_outliers(xs, 3.0)
}

/// Scratch buffers for the allocation-free outlier-rejection variants.
#[derive(Debug, Clone, Default)]
pub struct OutlierScratch {
    keep: Vec<bool>,
    kept: Vec<usize>,
}

/// [`reject_outliers`] writing into a caller-owned output buffer, using
/// `scratch` for the keep-mask and kept-index list. Returns the same bits
/// as the allocating version.
///
/// # Panics
///
/// Panics if `k` is not positive.
pub fn reject_outliers_into(xs: &[f64], k: f64, scratch: &mut OutlierScratch, out: &mut Vec<f64>) {
    assert!(k > 0.0, "sigma multiplier must be positive");
    out.clear();
    out.extend_from_slice(xs);
    if xs.is_empty() {
        return;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    scratch.keep.clear();
    scratch
        .keep
        .extend(xs.iter().map(|&x| (x - m).abs() <= k * s));
    interpolate_masked_in(xs, &scratch.keep, &mut scratch.kept, out);
}

/// Generalised σ-rule outlier rejection with interpolation repair.
///
/// # Panics
///
/// Panics if `k` is not positive.
pub fn reject_outliers(xs: &[f64], k: f64) -> Vec<f64> {
    let mask = sigma_mask(xs, k);
    interpolate_masked(xs, &mask)
}

/// Replaces masked-out (`false`) samples by linear interpolation between
/// the nearest `true` neighbours. If everything is masked out, the input
/// is returned unchanged (there is nothing to anchor a repair on).
///
/// # Panics
///
/// Panics if lengths differ.
fn interpolate_masked(xs: &[f64], keep: &[bool]) -> Vec<f64> {
    let mut out = xs.to_vec();
    let mut kept = Vec::new();
    interpolate_masked_in(xs, keep, &mut kept, &mut out);
    out
}

/// In-place core of [`interpolate_masked`]: `out` must already hold a copy
/// of `xs`; repaired samples are written over it. `kept_idx` is a reusable
/// scratch list of kept indices.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is drawn from 0..n or kept_idx ⊂ 0..n; the mask length is asserted equal at entry and out holds a copy of xs"
)]
fn interpolate_masked_in(xs: &[f64], keep: &[bool], kept_idx: &mut Vec<usize>, out: &mut [f64]) {
    assert_eq!(xs.len(), keep.len(), "mask length must match data length");
    if xs.is_empty() || keep.iter().all(|&k| !k) {
        return;
    }
    let n = xs.len();
    kept_idx.clear();
    kept_idx.extend((0..n).filter(|&i| keep[i]));
    for i in 0..n {
        if keep[i] {
            continue;
        }
        // Nearest kept neighbour on each side.
        let left = kept_idx.iter().rev().find(|&&j| j < i).copied();
        let right = kept_idx.iter().find(|&&j| j > i).copied();
        out[i] = match (left, right) {
            (Some(l), Some(r)) => {
                let t = (i - l) as f64 / (r - l) as f64;
                xs[l] + t * (xs[r] - xs[l])
            }
            (Some(l), None) => xs[l],
            (None, Some(r)) => xs[r],
            (None, None) => xs[i],
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with_outlier() -> Vec<f64> {
        let mut xs: Vec<f64> = (0..50)
            .map(|i| 1.0 + 0.01 * ((i as f64) * 0.3).sin())
            .collect();
        xs[20] = 10.0;
        xs
    }

    #[test]
    fn sigma_mask_flags_the_spike() {
        let xs = series_with_outlier();
        let mask = sigma_mask(&xs, 3.0);
        assert!(!mask[20]);
        assert_eq!(mask.iter().filter(|&&m| !m).count(), 1);
    }

    #[test]
    fn rejection_repairs_by_interpolation() {
        let xs = series_with_outlier();
        let cleaned = reject_outliers_3sigma(&xs);
        assert!((cleaned[20] - 1.0).abs() < 0.05);
        // Non-outliers untouched.
        assert_eq!(cleaned[0], xs[0]);
        assert_eq!(cleaned[49], xs[49]);
    }

    #[test]
    fn edge_outliers_take_nearest_value() {
        let xs = vec![100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let cleaned = reject_outliers(&xs, 1.5);
        assert_eq!(cleaned[0], 1.0);
    }

    #[test]
    fn interpolate_masked_linear_ramp() {
        let xs = vec![0.0, 99.0, 99.0, 3.0];
        let keep = vec![true, false, false, true];
        let out = interpolate_masked(&xs, &keep);
        assert!((out[1] - 1.0).abs() < 1e-12);
        assert!((out[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_masked_returns_input() {
        let xs = vec![1.0, 2.0];
        let out = interpolate_masked(&xs, &[false, false]);
        assert_eq!(out, xs);
    }

    #[test]
    fn empty_input_ok() {
        assert!(reject_outliers_3sigma(&[]).is_empty());
        assert!(sigma_mask(&[], 3.0).is_empty());
    }

    #[test]
    fn scratch_variant_matches_allocating_version_bitwise() {
        let mut scratch = OutlierScratch::default();
        let mut out = Vec::new();
        for xs in [series_with_outlier(), vec![5.0; 4], Vec::new()] {
            for k in [1.5, 3.0] {
                reject_outliers_into(&xs, k, &mut scratch, &mut out);
                let reference = reject_outliers(&xs, k);
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn interpolate_rejects_mismatched_mask() {
        let _ = interpolate_masked(&[1.0, 2.0], &[true]);
    }
}
