//! Classic smoothing filters: median, sliding mean, Butterworth.
//!
//! These are the three baselines the paper compares its wavelet denoiser
//! against in Fig. 7 ("median filter", "slide filter", "Butterworth
//! filter").

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

/// Windowed median filter (odd window, edges use the available part).
///
/// # Panics
///
/// Panics if `window` is zero or even.
#[expect(
    clippy::indexing_slicing,
    reason = "lo ≤ i < n and hi = min(i + half + 1, n), so xs[lo..hi] lies inside xs"
)]
pub fn median_filter(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    let n = xs.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            crate::stats::median(&xs[lo..hi])
        })
        .collect()
}

/// Sliding-mean ("slide") filter: windowed moving average.
///
/// # Panics
///
/// Panics if `window` is zero.
#[expect(
    clippy::indexing_slicing,
    reason = "lo ≤ i < n and hi = min(i + half + 1, n), so xs[lo..hi] lies inside xs"
)]
pub fn slide_filter(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    let n = xs.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            crate::stats::mean(&xs[lo..hi])
        })
        .collect()
}

/// A second-order IIR section (biquad) in Direct Form II transposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients (a0 normalised to 1).
    pub a: [f64; 2],
}

impl Biquad {
    /// Designs a 2nd-order Butterworth low-pass section with cutoff
    /// `fc_norm` (normalised to the Nyquist frequency, `0 < fc_norm < 1`)
    /// via the bilinear transform.
    ///
    /// # Panics
    ///
    /// Panics if `fc_norm` is outside `(0, 1)`.
    fn butterworth_lowpass(fc_norm: f64) -> Self {
        assert!(
            fc_norm > 0.0 && fc_norm < 1.0,
            "normalised cutoff must be in (0, 1), got {fc_norm}"
        );
        // Pre-warped analogue prototype, Q = 1/√2.
        let k = (std::f64::consts::PI * fc_norm / 2.0).tan();
        let q = std::f64::consts::FRAC_1_SQRT_2;
        let norm = 1.0 / (1.0 + k / q + k * k);
        let b0 = k * k * norm;
        Biquad {
            b: [b0, 2.0 * b0, b0],
            a: [2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm],
        }
    }

    /// Filters a signal (single pass, causal).
    pub fn filter(&self, xs: &[f64]) -> Vec<f64> {
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        xs.iter()
            .map(|&x| {
                let y = self.b[0] * x + s1;
                s1 = self.b[1] * x - self.a[0] * y + s2;
                s2 = self.b[2] * x - self.a[1] * y;
                y
            })
            .collect()
    }
}

/// Zero-phase Butterworth low-pass: 4th order (two cascaded biquads),
/// applied forward and backward (filtfilt) with reflected-edge padding so
/// the output has no phase lag or edge transients.
///
/// # Panics
///
/// Panics if `fc_norm` is outside `(0, 1)`.
#[expect(
    clippy::indexing_slicing,
    reason = "filter keeps the length, so rev holds xs.len() + 2·pad samples and the slice drops exactly the pads"
)]
pub fn butterworth_filtfilt(xs: &[f64], fc_norm: f64) -> Vec<f64> {
    if xs.len() < 8 {
        // Too short for the filter transient to settle; pass through.
        let _ = Biquad::butterworth_lowpass(fc_norm); // still validate cutoff
        return xs.to_vec();
    }
    let bq = Biquad::butterworth_lowpass(fc_norm);
    let pad = (xs.len() / 4).clamp(1, 64);
    let padded = reflect_pad(xs, pad);

    let fwd = bq.filter(&bq.filter(&padded));
    let mut rev: Vec<f64> = fwd.into_iter().rev().collect();
    rev = bq.filter(&bq.filter(&rev));
    rev.reverse();
    rev[pad..pad + xs.len()].to_vec()
}

/// Reflects `pad` samples at each end of the signal.
#[expect(
    clippy::indexing_slicing,
    reason = "the one caller passes n ≥ 8 samples, so i.min(n − 1) and the saturating n − 2 − i are below n"
)]
fn reflect_pad(xs: &[f64], pad: usize) -> Vec<f64> {
    let n = xs.len();
    let mut out = Vec::with_capacity(n + 2 * pad);
    for i in (1..=pad).rev() {
        out.push(xs[i.min(n - 1)]);
    }
    out.extend_from_slice(xs);
    for i in 0..pad {
        let idx = n.saturating_sub(2).saturating_sub(i);
        out.push(xs[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rms;

    fn noisy_step() -> Vec<f64> {
        (0..200)
            .map(|i| {
                let base = if i < 100 { 1.0 } else { 2.0 };
                base + 0.2 * ((i as f64 * 7.77).sin() * (i as f64 * 3.1).cos())
            })
            .collect()
    }

    #[test]
    fn median_filter_kills_single_spikes() {
        let mut xs = vec![1.0; 21];
        xs[10] = 50.0;
        let out = median_filter(&xs, 5);
        assert!(out.iter().all(|&y| (y - 1.0).abs() < 1e-12));
    }

    #[test]
    fn median_filter_preserves_constant() {
        let xs = vec![3.3; 10];
        assert_eq!(median_filter(&xs, 3), xs);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn median_filter_rejects_even_window() {
        let _ = median_filter(&[1.0, 2.0], 2);
    }

    #[test]
    fn slide_filter_smooths() {
        let xs = noisy_step();
        let out = slide_filter(&xs, 9);
        let noise_in: Vec<f64> = xs[..90].iter().map(|x| x - 1.0).collect();
        let noise_out: Vec<f64> = out[..90].iter().map(|x| x - 1.0).collect();
        assert!(rms(&noise_out) < rms(&noise_in) * 0.7);
    }

    #[test]
    fn butterworth_dc_gain_is_unity() {
        let bq = Biquad::butterworth_lowpass(0.2);
        let dc = vec![1.0; 500];
        let y = bq.filter(&dc);
        assert!((y[499] - 1.0).abs() < 1e-6, "dc gain = {}", y[499]);
    }

    #[test]
    fn butterworth_attenuates_high_frequency() {
        let bq = Biquad::butterworth_lowpass(0.1);
        // High-frequency tone near Nyquist.
        let hf: Vec<f64> = (0..500)
            .map(|i| (std::f64::consts::PI * 0.9 * i as f64).sin())
            .collect();
        let y = bq.filter(&hf);
        assert!(rms(&y[100..]) < 0.05 * rms(&hf[100..]));
    }

    #[test]
    fn filtfilt_has_zero_phase() {
        // A slow sine should come through nearly unchanged and unshifted.
        let xs: Vec<f64> = (0..400)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 200.0).sin())
            .collect();
        let y = butterworth_filtfilt(&xs, 0.3);
        assert_eq!(y.len(), xs.len());
        let err: Vec<f64> = xs.iter().zip(&y).map(|(a, b)| a - b).collect();
        assert!(rms(&err) < 0.02, "rms error = {}", rms(&err));
    }

    #[test]
    fn filtfilt_smooths_noise() {
        let xs = noisy_step();
        let y = butterworth_filtfilt(&xs, 0.1);
        let noise_in: Vec<f64> = xs[10..90].iter().map(|x| x - 1.0).collect();
        let noise_out: Vec<f64> = y[10..90].iter().map(|x| x - 1.0).collect();
        assert!(rms(&noise_out) < rms(&noise_in) * 0.6);
    }

    #[test]
    fn filtfilt_handles_short_and_empty() {
        assert!(butterworth_filtfilt(&[], 0.2).is_empty());
        // Signals too short for the transient pass through unchanged.
        let one = butterworth_filtfilt(&[5.0], 0.2);
        assert_eq!(one, vec![5.0]);
        let few = butterworth_filtfilt(&[1.0, 2.0, 3.0], 0.2);
        assert_eq!(few, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "normalised cutoff")]
    fn butterworth_rejects_bad_cutoff() {
        let _ = Biquad::butterworth_lowpass(1.5);
    }

    #[test]
    fn reflect_pad_shape() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let p = reflect_pad(&xs, 2);
        assert_eq!(p.len(), 8);
        assert_eq!(&p[2..6], &xs[..]);
        assert_eq!(p[1], 2.0); // reflection of index 1
        assert_eq!(p[6], 3.0);
    }
}
