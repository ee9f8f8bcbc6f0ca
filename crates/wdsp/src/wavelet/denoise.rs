//! Spatially-selective wavelet-correlation denoising.
//!
//! Implements the denoiser of the paper's §III-C, which follows the
//! wavelet-domain correlation filter of Xu et al. (1994): useful signal is
//! correlated across adjacent wavelet scales while noise is weakly
//! correlated, so multiplying adjacent-scale coefficients sharpens signal
//! locations. Points where the (power-normalised) correlation dominates
//! the coefficient itself are extracted as signal; iterating until the
//! residual band power falls to the noise floor (estimated by the robust
//! median rule) leaves only noise behind, which is discarded: the output
//! is the input minus the inverse transform of the discarded
//! coefficients alone.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use super::{analyze_into, swt_decompose, swt_reconstruct, synthesize_into, Wavelet};
use crate::stats::{robust_std, robust_std_in};

/// Configuration of the correlation denoiser.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationDenoiser {
    /// Wavelet family (paper default: Daubechies).
    pub wavelet: Wavelet,
    /// Decomposition levels (the last level's details are treated as
    /// signal-dominated and kept).
    pub levels: usize,
    /// Maximum extraction iterations per scale.
    pub max_iterations: usize,
    /// Multiplier on the robust noise-power estimate that serves as the
    /// stopping threshold per scale.
    pub threshold_scale: f64,
}

impl Default for CorrelationDenoiser {
    fn default() -> Self {
        CorrelationDenoiser {
            wavelet: Wavelet::Db4,
            levels: 4,
            max_iterations: 24,
            threshold_scale: 1.0,
        }
    }
}

/// Reusable work area for [`CorrelationDenoiser::denoise_columns`]. Holds
/// the decomposition bands, filter taps and temporaries so a steady-state
/// denoise call performs no heap allocation once the buffers have grown to
/// the working size.
#[derive(Debug, Clone, Default)]
pub struct DenoiseScratch {
    details: Vec<Vec<f64>>,
    approx: Vec<f64>,
    tmp: Vec<f64>,
    /// One column of a detail band, gathered for the per-series noise
    /// estimate and suppression.
    band: Vec<f64>,
    corr: Vec<f64>,
    sort: Vec<f64>,
    highpass: Vec<f64>,
}

impl CorrelationDenoiser {
    /// Creates a denoiser with a given wavelet and level count, default
    /// iteration/threshold settings.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` (the method needs adjacent scales).
    pub fn new(wavelet: Wavelet, levels: usize) -> Self {
        assert!(levels >= 2, "correlation denoising needs at least 2 levels");
        CorrelationDenoiser {
            wavelet,
            levels,
            ..CorrelationDenoiser::default()
        }
    }

    /// Denoises a signal. Signals shorter than 8 samples are returned
    /// unchanged (too short to estimate scale correlation).
    ///
    /// The decomposition depth is clamped so the coarsest level's
    /// upsampled filter still fits the signal — deeper levels would wrap
    /// circularly several times and smear energy instead of separating it.
    pub fn denoise(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.denoise_into(xs, &mut DenoiseScratch::default(), &mut out);
        out
    }

    /// [`Self::denoise`] through caller-owned buffers: the cleaned series
    /// is written into `out` and every intermediate band lives in
    /// `scratch` — the one-column case of [`Self::denoise_columns`].
    fn denoise_into(&self, xs: &[f64], scratch: &mut DenoiseScratch, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(xs);
        self.denoise_columns(out, 1, scratch);
    }

    /// Denoises, in place, every column of a sample-major plane holding
    /// `cols` series of `plane.len() / cols` samples (sample `m` of series
    /// `c` at `m·cols + c`). Each column comes out bit for bit as
    /// [`Self::denoise`] of that series alone: the transform kernels sum
    /// each element's taps in the per-series order, and the noise estimate
    /// and suppression run per column on gathered copies.
    ///
    /// The cleaned series is `x − R(δ)`: `δ` holds the detail coefficients
    /// suppression zeroed and `R` is the inverse transform with a zero
    /// approximation. For an orthonormal filter pair this is the inverse
    /// transform of the suppressed bands, up to rounding, without the
    /// coarsest approximation or the coarsest level's synthesis. A column
    /// with nothing zeroed comes back bit for bit as it went in.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or does not divide the plane's length.
    #[expect(
        clippy::indexing_slicing,
        reason = "details holds at least levels bands after the resize_with above, so l + 1 < levels indexes it; c < cols offsets stay inside each n·cols band"
    )]
    pub fn denoise_columns(&self, plane: &mut [f64], cols: usize, scratch: &mut DenoiseScratch) {
        assert!(
            cols > 0 && plane.len().is_multiple_of(cols),
            "plane must hold whole rows of cols samples"
        );
        let n_samples = plane.len() / cols;
        if n_samples < 8 {
            return;
        }
        let taps = self.wavelet.lowpass().len();
        let mut max_levels = 1usize;
        while (taps - 1) * (1usize << max_levels) < n_samples {
            max_levels += 1;
        }
        let levels = self.levels.min(max_levels);
        if levels < 2 {
            // Cannot form an adjacent-scale correlation; leave untouched.
            return;
        }
        let h = self.wavelet.lowpass();
        self.wavelet.highpass_into(&mut scratch.highpass);
        if scratch.details.len() < levels {
            scratch.details.resize_with(levels, Vec::new);
        }
        let DenoiseScratch {
            details,
            approx,
            tmp,
            band,
            corr,
            sort,
            highpass,
        } = scratch;
        // Analysis: every detail band, and each approximation only as far
        // as the next level reads it. Level 0 reads the plane itself.
        for (l, detail) in details[..levels].iter_mut().enumerate() {
            let stride = 1usize << l;
            let src: &[f64] = if l == 0 { plane } else { approx };
            analyze_into(src, cols, highpass, stride, detail);
            if l + 1 < levels {
                analyze_into(src, cols, h, stride, tmp);
                std::mem::swap(approx, tmp);
            }
        }

        let n = n_samples as f64;
        for c in 0..cols {
            // Robust per-coefficient noise σ from the finest detail band
            // (Donoho's median rule, which the paper cites via Xu et al.).
            gather_column(&details[0], cols, c, band);
            let sigma = robust_std_in(band, sort);
            for l in 0..levels - 1 {
                // Level 0's column is still in `band`: σ only read it.
                if l > 0 {
                    gather_column(&details[l], cols, c, band);
                }
                self.suppress_noise_at_scale_in(
                    band,
                    &details[l + 1][c..],
                    cols,
                    self.threshold_scale * n * sigma * sigma,
                    corr,
                );
                // The band becomes δ, what suppression removed: a kept
                // coefficient leaves 0, a zeroed one its old value. Level
                // l + 1 still reads its own column intact next.
                for (w, &kept) in details[l][c..].iter_mut().step_by(cols).zip(band.iter()) {
                    if kept != 0.0 {
                        *w = 0.0;
                    }
                }
            }
        }
        // Residual form: the unmodified transform reconstructs its input,
        // so the output is `x − R(δ)`, with `R` the synthesis chain fed δ
        // and a zero approximation. The coarsest detail band is kept, so
        // its level contributes nothing and its band, read for the last
        // time above, holds `R` level by level. An all-zero δ column
        // synthesises to +0.0, which leaves its input as it is.
        let (deltas, coarsest) = details[..levels].split_at_mut(levels - 1);
        let (Some(residual), Some((top, finer))) = (coarsest.first_mut(), deltas.split_last())
        else {
            return;
        };
        synthesize_into(top, cols, highpass, 1usize << finer.len(), residual);
        residual.iter_mut().for_each(|r| *r *= 0.5);
        for (l, delta) in finer.iter().enumerate().rev() {
            let stride = 1usize << l;
            synthesize_into(residual, cols, h, stride, approx);
            synthesize_into(delta, cols, highpass, stride, tmp);
            residual.clear();
            residual.extend(approx.iter().zip(tmp.iter()).map(|(a, d)| 0.5 * (a + d)));
        }
        for (x, r) in plane.iter_mut().zip(residual.iter()) {
            *x -= r;
        }
    }

    /// Iterative noise suppression on one detail band, using the adjacent
    /// coarser band as the correlation reference (paper Eq. 11–13).
    ///
    /// Per iteration: `Corr = W_l ⊙ W_{l+1}` is power-normalised to
    /// `NCorr = Corr·√(PW/PCorr)`; a coefficient whose own magnitude
    /// *dominates* its normalised correlation (`|w| ≥ |NCorr|`) is not
    /// confirmed by the coarser scale — it is noise (e.g. an impulse
    /// concentrated at fine scale) and is zeroed. Coefficients the coarser
    /// scale confirms survive. Iterate until the band power `PW` falls to
    /// the robust noise-power threshold. The coarser band's column is
    /// every `cols`-th value of `coarser`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the coarser band's column has as many samples as w, so corr.len() == w.len() and m < w.len() indexes both"
    )]
    fn suppress_noise_at_scale_in(
        &self,
        w: &mut [f64],
        coarser: &[f64],
        cols: usize,
        noise_power_threshold: f64,
        corr: &mut Vec<f64>,
    ) {
        for _ in 0..self.max_iterations {
            let pw: f64 = w.iter().map(|v| v * v).sum();
            if pw <= noise_power_threshold {
                break;
            }
            corr.clear();
            corr.extend(
                w.iter()
                    .zip(coarser.iter().step_by(cols))
                    .map(|(a, b)| a * b),
            );
            let pcorr: f64 = corr.iter().map(|c| c * c).sum();
            // A sum of squares is non-negative; non-positive means nothing
            // correlates.
            if pcorr <= 0.0 {
                // Nothing correlates with the coarser scale: all noise.
                w.iter_mut().for_each(|v| *v = 0.0);
                break;
            }
            let norm = (pw / pcorr).sqrt();
            let mut zeroed = 0usize;
            for m in 0..w.len() {
                if w[m].abs() > 0.0 && w[m].abs() >= (corr[m] * norm).abs() {
                    w[m] = 0.0;
                    zeroed += 1;
                }
            }
            if zeroed == 0 {
                break;
            }
        }
    }
}

/// Copies column `c` of a sample-major plane with `cols` columns into `out`.
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass c < cols, and every plane holds whole rows of cols samples"
)]
fn gather_column(plane: &[f64], cols: usize, c: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(plane[c..].iter().step_by(cols));
}

/// Denoises with the paper's correlation method using default settings.
pub fn correlation_denoise(xs: &[f64]) -> Vec<f64> {
    CorrelationDenoiser::default().denoise(xs)
}

/// Baseline comparison: universal soft-threshold wavelet denoising
/// (Donoho–Johnstone): threshold `σ̂·√(2·ln n)` applied to all detail
/// bands.
#[expect(
    clippy::indexing_slicing,
    reason = "swt_decompose asserts levels > 0, so details[0] exists"
)]
pub fn soft_threshold_denoise(xs: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
    if xs.len() < 8 {
        return xs.to_vec();
    }
    let mut dec = swt_decompose(xs, wavelet, levels);
    let sigma = robust_std(&dec.details[0]);
    let thr = sigma * (2.0 * (xs.len() as f64).ln()).sqrt();
    for d in &mut dec.details {
        for w in d.iter_mut() {
            let mag = (w.abs() - thr).max(0.0);
            *w = w.signum() * mag;
        }
    }
    swt_reconstruct(&dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rms;

    /// Deterministic pseudo-noise (uniform-ish) without pulling in `rand`.
    fn pseudo_noise(n: usize, seed: u64, amp: f64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                amp * ((state as f64 / u64::MAX as f64) - 0.5) * 2.0
            })
            .collect()
    }

    fn clean_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                1.0 + 0.3 * (2.0 * std::f64::consts::PI * 2.0 * t).sin()
            })
            .collect()
    }

    fn add_impulses(xs: &mut [f64], seed: u64, count: usize, magnitude: f64) {
        let mut state = seed | 1;
        for _ in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state as usize) % xs.len();
            let sign = if state & 2 == 0 { 1.0 } else { -1.0 };
            xs[idx] += sign * magnitude;
        }
    }

    fn error_rms(a: &[f64], b: &[f64]) -> f64 {
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        rms(&diff)
    }

    /// The round-trip denoiser, kept verbatim as the tolerance reference
    /// for the residual form: the full SWT, suppression in place, then
    /// the full inverse transform.
    fn denoise_reference(cfg: &CorrelationDenoiser, xs: &[f64]) -> Vec<f64> {
        if xs.len() < 8 {
            return xs.to_vec();
        }
        let taps = cfg.wavelet.lowpass().len();
        let mut max_levels = 1usize;
        while (taps - 1) * (1usize << max_levels) < xs.len() {
            max_levels += 1;
        }
        let levels = cfg.levels.min(max_levels);
        if levels < 2 {
            return xs.to_vec();
        }
        let mut dec = swt_decompose(xs, cfg.wavelet, levels);
        let sigma = robust_std(&dec.details[0]);
        let n = xs.len() as f64;
        for l in 0..levels - 1 {
            let mut w = dec.details[l].clone();
            let threshold = cfg.threshold_scale * n * sigma * sigma;
            for _ in 0..cfg.max_iterations {
                let pw: f64 = w.iter().map(|v| v * v).sum();
                if pw <= threshold {
                    break;
                }
                let corr: Vec<f64> = w
                    .iter()
                    .zip(&dec.details[l + 1])
                    .map(|(a, b)| a * b)
                    .collect();
                let pcorr: f64 = corr.iter().map(|c| c * c).sum();
                if pcorr <= 0.0 {
                    w.iter_mut().for_each(|v| *v = 0.0);
                    break;
                }
                let norm = (pw / pcorr).sqrt();
                let mut zeroed = 0usize;
                for m in 0..w.len() {
                    if w[m].abs() > 0.0 && w[m].abs() >= (corr[m] * norm).abs() {
                        w[m] = 0.0;
                        zeroed += 1;
                    }
                }
                if zeroed == 0 {
                    break;
                }
            }
            dec.details[l] = w;
        }
        swt_reconstruct(&dec)
    }

    /// Largest `|got − want|` over `max |input|`, the series' scale.
    fn relative_error(input: &[f64], got: &[f64], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        let scale = input.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let worst = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
        worst / scale.max(f64::MIN_POSITIVE)
    }

    #[test]
    fn scratch_denoiser_matches_round_trip_reference_across_reuse() {
        let mut scratch = DenoiseScratch::default();
        let mut out = Vec::new();
        let mut worst = 0.0f64;
        for cfg in [
            CorrelationDenoiser::default(),
            CorrelationDenoiser::new(Wavelet::Haar, 3),
            CorrelationDenoiser::new(Wavelet::Sym4, 2),
        ] {
            // Reusing one scratch across lengths and seeds must not leak
            // state between calls.
            for (n, seed) in [(5usize, 1u64), (64, 2), (256, 3), (33, 4), (128, 5)] {
                let mut noisy = clean_signal(n.max(1));
                noisy
                    .iter_mut()
                    .zip(pseudo_noise(n.max(1), seed, 0.05))
                    .for_each(|(x, e)| *x += e);
                add_impulses(&mut noisy, seed + 17, n / 16, 0.5);
                cfg.denoise_into(&noisy, &mut scratch, &mut out);
                let reference = denoise_reference(&cfg, &noisy);
                // The round trip leans on `Σh² = 1`, which Db4's taps
                // miss by 9.3e-13; the residual form does not.
                let err = relative_error(&noisy, &out, &reference);
                assert!(
                    err <= 5e-12,
                    "{} n={n}: relative error {err:e}",
                    cfg.wavelet
                );
                worst = worst.max(err);
                // The same series beside two others in one sample-major
                // plane: each column must come out as its lone series.
                let columns = [
                    noisy.clone(),
                    noisy.iter().map(|x| 2.0 - x).collect(),
                    reference.clone(),
                ];
                let mut plane: Vec<f64> = (0..3 * n).map(|j| columns[j % 3][j / 3]).collect();
                cfg.denoise_columns(&mut plane, 3, &mut scratch);
                for (c, column) in columns.iter().enumerate() {
                    let want = cfg.denoise(column);
                    for (i, w) in want.iter().enumerate() {
                        let got = plane[i * 3 + c];
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "{} n={n} c={c} i={i}",
                            cfg.wavelet
                        );
                    }
                }
            }
        }
        println!("worst relative error {worst:e}");
    }

    #[test]
    fn series_with_nothing_suppressed_comes_back_bitwise() {
        // With no suppression iteration nothing is zeroed, so no residual
        // is formed; the round trip would have moved the low bits.
        let cfg = CorrelationDenoiser {
            max_iterations: 0,
            ..CorrelationDenoiser::default()
        };
        let mut noisy = clean_signal(128);
        add_impulses(&mut noisy, 9, 8, 0.5);
        let mut scratch = DenoiseScratch::default();
        let mut out = Vec::new();
        cfg.denoise_into(&noisy, &mut scratch, &mut out);
        for (a, b) in out.iter().zip(&noisy) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn removes_impulse_noise() {
        let clean = clean_signal(256);
        let mut noisy = clean.clone();
        noisy
            .iter_mut()
            .zip(pseudo_noise(256, 7, 0.02))
            .for_each(|(x, n)| *x += n);
        add_impulses(&mut noisy, 99, 12, 0.5);

        let denoised = correlation_denoise(&noisy);
        let before = error_rms(&noisy, &clean);
        let after = error_rms(&denoised, &clean);
        assert!(
            after < 0.5 * before,
            "denoise must cut error at least 2x: before {before}, after {after}"
        );
    }

    #[test]
    fn beats_or_matches_soft_threshold_on_impulses() {
        let clean = clean_signal(256);
        let mut noisy = clean.clone();
        add_impulses(&mut noisy, 3, 16, 0.6);
        let corr = correlation_denoise(&noisy);
        let soft = soft_threshold_denoise(&noisy, Wavelet::Db4, 4);
        let e_corr = error_rms(&corr, &clean);
        let e_soft = error_rms(&soft, &clean);
        assert!(
            e_corr < 1.3 * e_soft,
            "correlation ({e_corr}) should be competitive with soft threshold ({e_soft})"
        );
    }

    #[test]
    fn preserves_clean_signal() {
        let clean = clean_signal(128);
        let out = correlation_denoise(&clean);
        assert!(
            error_rms(&out, &clean) < 0.05,
            "clean signal distorted by {}",
            error_rms(&out, &clean)
        );
    }

    #[test]
    fn preserves_sharp_signal_edges_better_than_heavy_smoothing() {
        // A step edge is legitimate signal: the correlation method should
        // keep it (scale-correlated) while removing isolated impulses.
        let mut signal: Vec<f64> = vec![1.0; 128];
        signal[64..].iter_mut().for_each(|x| *x = 2.0);
        let mut noisy = signal.clone();
        add_impulses(&mut noisy, 5, 8, 0.5);
        let out = correlation_denoise(&noisy);
        // The edge must survive: difference across it stays large.
        let edge = out[70] - out[58];
        assert!(edge > 0.6, "edge flattened to {edge}");
    }

    #[test]
    fn short_signals_pass_through() {
        let xs = vec![1.0, 2.0, 3.0];
        assert_eq!(correlation_denoise(&xs), xs);
        assert_eq!(soft_threshold_denoise(&xs, Wavelet::Haar, 2), xs);
    }

    #[test]
    fn custom_settings_work() {
        let d = CorrelationDenoiser::new(Wavelet::Haar, 3);
        let clean = clean_signal(64);
        let mut noisy = clean.clone();
        add_impulses(&mut noisy, 11, 5, 0.4);
        let out = d.denoise(&noisy);
        assert!(error_rms(&out, &clean) < error_rms(&noisy, &clean));
    }

    #[test]
    #[should_panic(expected = "at least 2 levels")]
    fn rejects_single_level() {
        let _ = CorrelationDenoiser::new(Wavelet::Haar, 1);
    }

    #[test]
    fn soft_threshold_reduces_broadband_noise() {
        let clean = clean_signal(256);
        let mut noisy = clean.clone();
        noisy
            .iter_mut()
            .zip(pseudo_noise(256, 21, 0.15))
            .for_each(|(x, n)| *x += n);
        let out = soft_threshold_denoise(&noisy, Wavelet::Db4, 4);
        assert!(error_rms(&out, &clean) < error_rms(&noisy, &clean));
    }
}
